package trace

import (
	"strings"
	"testing"
)

func TestTrajectoryRecordsAll(t *testing.T) {
	tr := NewTrajectory(100)
	for i := 0; i < 50; i++ {
		tr.Add(float64(i), i, 50-i)
	}
	if tr.Len() != 50 {
		t.Errorf("Len = %d, want 50", tr.Len())
	}
	pts := tr.Points()
	if pts[0] != (Point{Time: 0, X0: 0, X1: 50}) {
		t.Errorf("first point = %+v", pts[0])
	}
	if pts[49] != (Point{Time: 49, X0: 49, X1: 1}) {
		t.Errorf("last point = %+v", pts[49])
	}
}

func TestTrajectoryDownsamples(t *testing.T) {
	tr := NewTrajectory(64)
	const total = 100000
	for i := 0; i < total; i++ {
		tr.Add(float64(i), i, 0)
	}
	if tr.Len() > 64 {
		t.Errorf("Len = %d, want <= 64", tr.Len())
	}
	pts := tr.Points()
	// Points must stay time-ordered and span the run.
	for i := 1; i < len(pts); i++ {
		if pts[i].Time <= pts[i-1].Time {
			t.Fatalf("points out of order at %d: %v then %v", i, pts[i-1], pts[i])
		}
	}
	if pts[0].Time != 0 {
		t.Errorf("first kept point at t=%v, want 0", pts[0].Time)
	}
	if pts[len(pts)-1].Time < total/2 {
		t.Errorf("last kept point at t=%v, does not span the run", pts[len(pts)-1].Time)
	}
}

func TestTrajectoryMinimumSize(t *testing.T) {
	tr := NewTrajectory(1)
	for i := 0; i < 100; i++ {
		tr.Add(float64(i), 1, 1)
	}
	if tr.Len() > 16 {
		t.Errorf("Len = %d, want <= 16 (the floor)", tr.Len())
	}
}

func TestPointsIsCopy(t *testing.T) {
	tr := NewTrajectory(16)
	tr.Add(0, 1, 2)
	pts := tr.Points()
	pts[0].X0 = 999
	if tr.Points()[0].X0 != 1 {
		t.Error("Points() exposed internal storage")
	}
}

func TestRenderASCII(t *testing.T) {
	tr := NewTrajectory(100)
	for i := 0; i <= 20; i++ {
		tr.Add(float64(i), 20-i, i)
	}
	var b strings.Builder
	if err := tr.RenderASCII(&b, 40, 10); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "0") || !strings.Contains(out, "1") {
		t.Errorf("chart missing series markers:\n%s", out)
	}
	if !strings.Contains(out, "max 20") {
		t.Errorf("chart missing max label:\n%s", out)
	}
	lines := strings.Split(out, "\n")
	// Header + height rows + axis + footer.
	if len(lines) < 13 {
		t.Errorf("chart has %d lines, want >= 13:\n%s", len(lines), out)
	}
}

func TestRenderASCIIErrors(t *testing.T) {
	tr := NewTrajectory(16)
	var b strings.Builder
	if err := tr.RenderASCII(&b, 40, 10); err == nil {
		t.Error("empty trajectory rendered")
	}
	tr.Add(0, 1, 1)
	if err := tr.RenderASCII(&b, 2, 2); err == nil {
		t.Error("tiny chart accepted")
	}
}

func TestRenderASCIIConstantTime(t *testing.T) {
	// All samples at the same instant must not divide by zero.
	tr := NewTrajectory(16)
	tr.Add(1, 3, 4)
	tr.Add(1, 2, 5)
	var b strings.Builder
	if err := tr.RenderASCII(&b, 20, 5); err != nil {
		t.Fatal(err)
	}
}
