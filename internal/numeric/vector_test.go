package numeric

import (
	"math"
	"testing"
)

func TestLinspace(t *testing.T) {
	v := Linspace(0, 10, 11)
	if len(v) != 11 || v[0] != 0 || v[10] != 10 || v[5] != 5 {
		t.Fatalf("Linspace = %v", v)
	}
	if got := Linspace(3, 9, 1); len(got) != 1 || got[0] != 3 {
		t.Fatalf("Linspace n=1 = %v", got)
	}
	if got := Linspace(0, 1, 0); got != nil {
		t.Fatalf("Linspace n=0 = %v, want nil", got)
	}
	// Decreasing ranges work too.
	d := Linspace(5, 1, 5)
	if d[0] != 5 || d[4] != 1 {
		t.Fatalf("decreasing Linspace = %v", d)
	}
}

func TestLogspace(t *testing.T) {
	v := Logspace(0.01, 100, 5)
	want := []float64{0.01, 0.1, 1, 10, 100}
	if len(v) != 5 {
		t.Fatalf("len = %d", len(v))
	}
	for i := range want {
		if !CloseRel(v[i], want[i], 1e-12, 0) {
			t.Fatalf("Logspace = %v, want %v", v, want)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Logspace with nonpositive endpoint did not panic")
			}
		}()
		Logspace(0, 1, 3)
	}()
}

func TestResidual(t *testing.T) {
	a := Identity(2)
	res, err := Residual(a, []complex128{1, 2}, []complex128{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if res != 0 {
		t.Fatalf("Residual = %v, want 0", res)
	}
	res, err = Residual(a, []complex128{1, 2}, []complex128{1, 5})
	if err != nil {
		t.Fatal(err)
	}
	if res != 3 {
		t.Fatalf("Residual = %v, want 3", res)
	}
}

func TestDbRoundTrip(t *testing.T) {
	for _, m := range []float64{0.001, 0.5, 1, 2, 1000} {
		if got := math.Pow(10, Db(m)/20); !CloseRel(got, m, 1e-12, 0) {
			t.Fatalf("round trip %v -> %v", m, got)
		}
	}
	if Db(1) != 0 {
		t.Fatalf("Db(1) = %v, want 0", Db(1))
	}
	if math.Abs(Db(10)-20) > 1e-12 {
		t.Fatalf("Db(10) = %v, want 20", Db(10))
	}
	if !math.IsInf(Db(0), -1) {
		t.Fatalf("Db(0) = %v, want -Inf", Db(0))
	}
}

func TestCloseRel(t *testing.T) {
	if !CloseRel(100, 100.0000001, 1e-6, 0) {
		t.Fatal("CloseRel rejected nearly equal values")
	}
	if CloseRel(100, 101, 1e-6, 0) {
		t.Fatal("CloseRel accepted distant values")
	}
	if !CloseRel(0, 1e-15, 1e-12, 1e-12) {
		t.Fatal("CloseRel abs floor not applied")
	}
}
