// Package netlist parses and serializes a SPICE-like netlist dialect
// covering the element set of the circuit package. It lets the CLI tools
// accept external circuits under test instead of only the built-in
// benchmarks.
//
// Supported cards (one per line, case-insensitive designator prefix):
//
//	R<name> <n+> <n-> <value>              resistor (ohms)
//	C<name> <n+> <n-> <value>              capacitor (farads)
//	L<name> <n+> <n-> <value>              inductor (henries)
//	V<name> <n+> <n-> <mag> [phase_deg]    AC voltage source
//	I<name> <n+> <n-> <mag> [phase_deg]    AC current source
//	E<name> <o+> <o-> <c+> <c-> <gain>     VCVS
//	G<name> <o+> <o-> <c+> <c-> <gm>       VCCS
//	H<name> <o+> <o-> <vname> <r>          CCVS (controlled by V element)
//	F<name> <o+> <o-> <vname> <gain>       CCCS
//	O<name> <in+> <in-> <out>              ideal opamp ("U" prefix accepted)
//	X<name> <node...> <subckt>             subcircuit instance
//	.subckt <name> <port...> / .ends       subcircuit definition
//
// Values accept engineering suffixes (f p n u m k meg g t) and scientific
// notation. '*' or ';' start comments; a leading '+' continues the
// previous line; a first line that is not a card is treated as the title
// (SPICE convention); ".end" stops parsing and other dot-cards are
// ignored.
package netlist

import (
	"fmt"
	"math"
	"math/cmplx"
	"strconv"
	"strings"

	"repro/internal/circuit"
)

// ParseError reports a netlist syntax error with its source location:
// the 1-based physical line number and the offending card text. Every
// error Parse returns is (or wraps) a ParseError, so callers can recover
// the location with errors.As.
type ParseError struct {
	// Line is the 1-based physical source line the error points at (for
	// a continuation card, the line the card started on).
	Line int
	// Card is the offending card text ("" when no card applies, e.g. an
	// empty netlist).
	Card string
	// Msg describes the problem.
	Msg string
}

func (e *ParseError) Error() string {
	if e.Card == "" {
		return fmt.Sprintf("netlist: line %d: %s", e.Line, e.Msg)
	}
	return fmt.Sprintf("netlist: line %d: %s (%q)", e.Line, e.Msg, e.Card)
}

func errAt(line int, card, format string, args ...any) error {
	return &ParseError{Line: line, Card: card, Msg: fmt.Sprintf(format, args...)}
}

// ParseValue converts a SPICE number with optional engineering suffix.
// Examples: "4.7k" → 4700, "100n" → 1e-7, "2meg" → 2e6, "1e-6" → 1e-6.
// The value must be finite: "infinity", "nank" and "1e308k" are refused.
func ParseValue(s string) (float64, error) {
	t := strings.ToLower(strings.TrimSpace(s))
	if t == "" {
		return 0, fmt.Errorf("empty value")
	}
	mult := 1.0
	switch {
	case strings.HasSuffix(t, "meg"):
		mult, t = 1e6, strings.TrimSuffix(t, "meg")
	case strings.HasSuffix(t, "f"):
		mult, t = 1e-15, strings.TrimSuffix(t, "f")
	case strings.HasSuffix(t, "p"):
		mult, t = 1e-12, strings.TrimSuffix(t, "p")
	case strings.HasSuffix(t, "n"):
		mult, t = 1e-9, strings.TrimSuffix(t, "n")
	case strings.HasSuffix(t, "u"):
		mult, t = 1e-6, strings.TrimSuffix(t, "u")
	case strings.HasSuffix(t, "m"):
		mult, t = 1e-3, strings.TrimSuffix(t, "m")
	case strings.HasSuffix(t, "k"):
		mult, t = 1e3, strings.TrimSuffix(t, "k")
	case strings.HasSuffix(t, "g"):
		mult, t = 1e9, strings.TrimSuffix(t, "g")
	case strings.HasSuffix(t, "t"):
		mult, t = 1e12, strings.TrimSuffix(t, "t")
	}
	v, err := strconv.ParseFloat(t, 64)
	if err != nil {
		return 0, fmt.Errorf("bad number %q", s)
	}
	v *= mult
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("value %q is not finite", s)
	}
	return v, nil
}

// FormatValue renders a value with an engineering suffix when ParseValue
// reads that form back to the same float64, and in shortest %g form,
// which always does, otherwise.
func FormatValue(v float64) string {
	type unit struct {
		mult   float64
		suffix string
	}
	units := []unit{
		{1e12, "t"}, {1e9, "g"}, {1e6, "meg"}, {1e3, "k"},
		{1, ""}, {1e-3, "m"}, {1e-6, "u"}, {1e-9, "n"}, {1e-12, "p"},
	}
	av := math.Abs(v)
	for _, u := range units {
		if av >= u.mult && av < u.mult*1000 {
			s := strconv.FormatFloat(v/u.mult, 'g', -1, 64) + u.suffix
			if back, err := ParseValue(s); err == nil && math.Float64bits(back) == math.Float64bits(v) {
				return s
			}
			break
		}
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Parse reads a netlist and builds a circuit named after the title line
// (or "netlist" if the input starts directly with cards).
func Parse(input string) (*circuit.Circuit, error) {
	physical := strings.Split(strings.ReplaceAll(input, "\r\n", "\n"), "\n")

	// Join continuation lines, remembering the source line of each card.
	var logical []srcLine
	for i, raw := range physical {
		line := stripComment(raw)
		trimmed := strings.TrimSpace(line)
		if trimmed == "" {
			continue
		}
		if strings.HasPrefix(trimmed, "+") {
			if len(logical) == 0 {
				return nil, errAt(i+1, trimmed, "continuation with no previous card")
			}
			logical[len(logical)-1].text += " " + strings.TrimSpace(trimmed[1:])
			continue
		}
		logical = append(logical, srcLine{text: trimmed, line: i + 1})
	}
	if len(logical) == 0 {
		return nil, &ParseError{Line: 1, Msg: "empty input: no cards found"}
	}

	title := "netlist"
	start := 0
	if !isCard(logical[0].text) {
		title = logical[0].text
		start = 1
	}
	// Honour .end before anything else ('.ends' terminates subcircuits,
	// not the netlist, so match the whole token).
	body := logical[start:]
	for i, sl := range body {
		token := strings.ToLower(strings.Fields(sl.text)[0])
		if token == ".end" {
			body = body[:i]
			break
		}
	}

	top, defs, err := extractSubckts(body)
	if err != nil {
		return nil, err
	}

	c := circuit.New(title)
	for _, sl := range top {
		card := sl.text
		lower := strings.ToLower(card)
		if strings.HasPrefix(lower, "x") {
			if err := expandInstance(c, sl.line, card, defs, 0); err != nil {
				return nil, err
			}
			continue
		}
		if strings.HasPrefix(lower, ".") {
			continue // analysis directives are the caller's business
		}
		el, err := parseCard(sl.line, card)
		if err != nil {
			return nil, err
		}
		if err := c.Add(el); err != nil {
			return nil, errAt(sl.line, card, "%v", err)
		}
	}
	if len(c.Elements()) == 0 {
		// Point at the first (title or directive) line: everything after
		// it was consumed without yielding an element.
		return nil, &ParseError{Line: logical[0].line, Card: logical[0].text, Msg: "netlist has no elements"}
	}
	return c, nil
}

func stripComment(line string) string {
	if i := strings.IndexAny(line, ";"); i >= 0 {
		line = line[:i]
	}
	if t := strings.TrimSpace(line); strings.HasPrefix(t, "*") {
		return ""
	}
	return line
}

// isCard reports whether a line parses as an element card or dot
// directive; anything else in first position is the SPICE title line.
func isCard(line string) bool {
	if line == "" {
		return false
	}
	if strings.HasPrefix(line, ".") {
		return true
	}
	switch strings.ToLower(line[:1]) {
	case "r", "c", "l", "v", "i", "e", "g", "h", "f", "o", "u":
		_, err := parseCard(0, line)
		return err == nil
	case "x":
		// X cards reference a subcircuit resolved later; a structural
		// check suffices for title detection.
		return len(strings.Fields(line)) >= 3
	}
	return false
}

func parseCard(line int, card string) (circuit.Element, error) {
	fields := strings.Fields(card)
	name := fields[0]
	kind := strings.ToLower(name[:1])
	args := fields[1:]
	need := func(n int) error {
		if len(args) < n {
			return errAt(line, card, "element %s needs %d fields, got %d", name, n, len(args))
		}
		return nil
	}
	val := func(s string) (float64, error) {
		v, err := ParseValue(s)
		if err != nil {
			return 0, errAt(line, card, "%v", err)
		}
		return v, nil
	}
	switch kind {
	case "r", "c", "l":
		if err := need(3); err != nil {
			return nil, err
		}
		v, err := val(args[2])
		if err != nil {
			return nil, err
		}
		switch kind {
		case "r":
			return circuit.NewResistor(name, args[0], args[1], v), nil
		case "c":
			return circuit.NewCapacitor(name, args[0], args[1], v), nil
		default:
			return circuit.NewInductor(name, args[0], args[1], v), nil
		}
	case "v", "i":
		if err := need(3); err != nil {
			return nil, err
		}
		mag, err := val(args[2])
		if err != nil {
			return nil, err
		}
		var deg float64
		if len(args) >= 4 {
			if deg, err = val(args[3]); err != nil {
				return nil, err
			}
		}
		amp := sourceAmplitude(mag, deg)
		if kind == "v" {
			v := circuit.NewVSource(name, args[0], args[1], amp)
			v.Mag, v.PhaseDeg = mag, deg
			return v, nil
		}
		i := circuit.NewISource(name, args[0], args[1], amp)
		i.Mag, i.PhaseDeg = mag, deg
		return i, nil
	case "e", "g":
		if err := need(5); err != nil {
			return nil, err
		}
		v, err := val(args[4])
		if err != nil {
			return nil, err
		}
		if kind == "e" {
			return circuit.NewVCVS(name, args[0], args[1], args[2], args[3], v), nil
		}
		return circuit.NewVCCS(name, args[0], args[1], args[2], args[3], v), nil
	case "h", "f":
		if err := need(4); err != nil {
			return nil, err
		}
		v, err := val(args[3])
		if err != nil {
			return nil, err
		}
		if kind == "h" {
			return circuit.NewCCVS(name, args[0], args[1], args[2], v), nil
		}
		return circuit.NewCCCS(name, args[0], args[1], args[2], v), nil
	case "o", "u":
		if err := need(3); err != nil {
			return nil, err
		}
		return circuit.NewIdealOpAmp(name, args[0], args[1], args[2]), nil
	default:
		return nil, errAt(line, card, "unknown element kind %q", name[:1])
	}
}

// sourceAmplitude is the phasor a source card's magnitude and phase in
// degrees stand for.
func sourceAmplitude(mag, deg float64) complex128 {
	if deg == 0 {
		return complex(mag, 0)
	}
	return cmplx.Rect(mag, deg*math.Pi/180)
}

// sourcePolar returns the magnitude and phase in degrees Serialize writes
// for a source: the ones its card gave while they still produce amp, and
// the polar form of amp otherwise (a source built in code).
func sourcePolar(amp complex128, mag, deg float64) (float64, float64) {
	if sourceAmplitude(mag, deg) == amp {
		return mag, deg
	}
	r, theta := cmplx.Polar(amp)
	return r, theta * 180 / math.Pi
}

// Serialize renders a circuit back into netlist text. Every number is
// written so that Parse reads back the same float64, and a parsed source
// keeps the magnitude and phase its card gave, so parse → serialize is a
// fixed point for netlists without subcircuit instances.
func Serialize(c *circuit.Circuit) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", c.Name())
	for _, e := range c.Elements() {
		switch el := e.(type) {
		case *circuit.Resistor:
			fmt.Fprintf(&b, "%s %s %s %s\n", el.Name(), el.Nodes()[0], el.Nodes()[1], FormatValue(el.Ohms))
		case *circuit.Capacitor:
			fmt.Fprintf(&b, "%s %s %s %s\n", el.Name(), el.Nodes()[0], el.Nodes()[1], FormatValue(el.Farads))
		case *circuit.Inductor:
			fmt.Fprintf(&b, "%s %s %s %s\n", el.Name(), el.Nodes()[0], el.Nodes()[1], FormatValue(el.Henries))
		case *circuit.VSource:
			mag, deg := sourcePolar(el.Amplitude, el.Mag, el.PhaseDeg)
			fmt.Fprintf(&b, "%s %s %s %s %g\n", el.Name(), el.Nodes()[0], el.Nodes()[1], FormatValue(mag), deg)
		case *circuit.ISource:
			mag, deg := sourcePolar(el.Amplitude, el.Mag, el.PhaseDeg)
			fmt.Fprintf(&b, "%s %s %s %s %g\n", el.Name(), el.Nodes()[0], el.Nodes()[1], FormatValue(mag), deg)
		case *circuit.VCVS:
			fmt.Fprintf(&b, "%s %s %s %s %s %g\n", el.Name(), el.OutP, el.OutN, el.CtlP, el.CtlN, el.Gain)
		case *circuit.VCCS:
			fmt.Fprintf(&b, "%s %s %s %s %s %g\n", el.Name(), el.OutP, el.OutN, el.CtlP, el.CtlN, el.Gm)
		case *circuit.CCVS:
			fmt.Fprintf(&b, "%s %s %s %s %g\n", el.Name(), el.OutP, el.OutN, el.Control, el.R)
		case *circuit.CCCS:
			fmt.Fprintf(&b, "%s %s %s %s %g\n", el.Name(), el.OutP, el.OutN, el.Control, el.Gain)
		case *circuit.IdealOpAmp:
			fmt.Fprintf(&b, "%s %s %s %s\n", el.Name(), el.InP, el.InN, el.Out)
		default:
			return "", fmt.Errorf("netlist: cannot serialize element %s of type %T", e.Name(), e)
		}
	}
	b.WriteString(".end\n")
	return b.String(), nil
}
