package sim

import (
	"testing"
	"testing/quick"
)

func TestUnits(t *testing.T) {
	if Microseconds(1) != 1000 || Milliseconds(1) != 1e6 || SecondsDur(1) != 1e9 {
		t.Fatal("unit constructors wrong")
	}
	if Milliseconds(2.5).Millis() != 2.5 {
		t.Fatal("Millis roundtrip wrong")
	}
	if Time(1500).String() != "1.500µs" {
		t.Fatalf("String = %s", Time(1500).String())
	}
	if Time(42).String() != "42ns" {
		t.Fatalf("String = %s", Time(42).String())
	}
}

func TestMaxTime(t *testing.T) {
	if MaxTime(1, 5, 3) != 5 || MaxTime() != 0 {
		t.Fatal("MaxTime wrong")
	}
}

func TestResourceSerializes(t *testing.T) {
	r := NewResource("gpu0")
	s1, e1 := r.Schedule(0, 10)
	if s1 != 0 || e1 != 10 {
		t.Fatalf("first booking [%d,%d)", s1, e1)
	}
	// Ready at 5 but resource busy until 10.
	s2, e2 := r.Schedule(5, 20)
	if s2 != 10 || e2 != 30 {
		t.Fatalf("second booking [%d,%d)", s2, e2)
	}
	// Ready after free: starts at ready.
	s3, _ := r.Schedule(100, 1)
	if s3 != 100 {
		t.Fatalf("third booking starts %d", s3)
	}
	r.Reset()
	if r.Free() != 0 {
		t.Fatal("Reset failed")
	}
}

func TestScheduleNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewResource("x").Schedule(0, -1)
}

// Property: any sequence of Schedule calls on one resource yields
// non-overlapping, causally ordered spans.
func TestScheduleCausalityProperty(t *testing.T) {
	f := func(readies []uint16, durs []uint16) bool {
		r := NewResource("x")
		var prevEnd Time
		n := len(readies)
		if len(durs) < n {
			n = len(durs)
		}
		for i := 0; i < n; i++ {
			s, e := r.Schedule(Time(readies[i]), Duration(durs[i]))
			if s < Time(readies[i]) || e != s+Duration(durs[i]) || s < prevEnd {
				return false
			}
			prevEnd = e
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
