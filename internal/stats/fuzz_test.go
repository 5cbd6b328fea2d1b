package stats

import "testing"

// FuzzWilsonInterval checks the interval's structural guarantees for all
// accepted inputs.
func FuzzWilsonInterval(f *testing.F) {
	f.Add(50, 100)
	f.Add(0, 1)
	f.Add(1, 1)
	f.Add(-1, 10)
	f.Add(11, 10)
	f.Fuzz(func(t *testing.T, successes, trials int) {
		est, err := WilsonInterval(successes, trials, Z95)
		if err != nil {
			return
		}
		if est.Lo < 0 || est.Hi > 1 || est.Lo > est.Hi {
			t.Fatalf("malformed interval %+v", est)
		}
		p := est.P()
		if p < est.Lo-1e-12 || p > est.Hi+1e-12 {
			t.Fatalf("point estimate %v outside its own interval %+v", p, est)
		}
	})
}

// FuzzQuantile checks ordering and range guarantees.
func FuzzQuantile(f *testing.F) {
	f.Add([]byte{1, 2, 3}, uint8(128))
	f.Add([]byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, qRaw uint8) {
		if len(raw) == 0 {
			return
		}
		xs := make([]float64, len(raw))
		lo, hi := 255.0, 0.0
		for i, b := range raw {
			xs[i] = float64(b)
			if xs[i] < lo {
				lo = xs[i]
			}
			if xs[i] > hi {
				hi = xs[i]
			}
		}
		q := float64(qRaw) / 255
		v, err := Quantile(xs, q)
		if err != nil {
			t.Fatal(err)
		}
		if v < lo || v > hi {
			t.Fatalf("quantile %v outside sample range [%v, %v]", v, lo, hi)
		}
	})
}
