package report

import (
	"strings"
	"testing"

	"siot/internal/stats"
)

func TestDetectionLatency(t *testing.T) {
	gap := stats.NewSeries("gap", []float64{-0.1, 0.0, 0.02, 0.05, 0.01, 0.2})
	if got := detectionLatency(gap, 0.05); got != 3 {
		t.Fatalf("detectionLatency = %d, want 3", got)
	}
	if got := detectionLatency(gap, 0.5); got != -1 {
		t.Fatalf("undetectable: got %d, want -1", got)
	}
	if got := detectionLatency(stats.NewSeries("empty", nil), 0.1); got != -1 {
		t.Fatalf("empty series: got %d, want -1", got)
	}
}

func TestNewResilience(t *testing.T) {
	gap := stats.NewSeries("gap", []float64{-0.2, 0.1, 0.3})
	r := NewResilience(gap, 0.25, 0.8, 0.65)
	if r.TrustGap != 0.3 {
		t.Errorf("TrustGap = %v", r.TrustGap)
	}
	if r.MinTrustGap != -0.2 {
		t.Errorf("MinTrustGap = %v", r.MinTrustGap)
	}
	if r.DetectionRound != 2 {
		t.Errorf("DetectionRound = %d", r.DetectionRound)
	}
	if got := r.SuccessDegradation; got < 0.15-1e-12 || got > 0.15+1e-12 {
		t.Errorf("SuccessDegradation = %v", got)
	}
}

func TestResilienceAddRows(t *testing.T) {
	tbl := &Table{Headers: []string{"Metric", "Value"}}
	Resilience{TrustGap: 0.1, MinTrustGap: -0.05, DetectionRound: -1, SuccessDegradation: 0.02}.AddRows(tbl)
	var b strings.Builder
	if err := tbl.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"undetected", "trust gap (final)", "success degradation"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
	tbl2 := &Table{Headers: []string{"Metric", "Value"}}
	Resilience{DetectionRound: 12}.AddRows(tbl2)
	var b2 strings.Builder
	if err := tbl2.Render(&b2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b2.String(), "round 12") {
		t.Errorf("detection round not rendered:\n%s", b2.String())
	}
}
