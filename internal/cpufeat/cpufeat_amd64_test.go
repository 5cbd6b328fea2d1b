//go:build linux

package cpufeat_test

import (
	"os"
	"strings"
	"testing"

	"lvmajority/internal/cpufeat"
)

// cpuinfoFlags returns the flags of the first CPU in /proc/cpuinfo.
func cpuinfoFlags(t *testing.T) map[string]bool {
	t.Helper()
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip(err)
	}
	flags := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		if name, list, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			for _, f := range strings.Fields(list) {
				flags[f] = true
			}
			break
		}
	}
	if len(flags) == 0 {
		t.Fatal("no flags line in /proc/cpuinfo")
	}
	return flags
}

// TestAVX2DetectionMatchesCPUInfo checks the CPUID detector against the
// flags Linux reports, so that a broken check cannot quietly turn every
// amd64 run into a test of the Go rounds alone. Linux does not list
// osxsave in /proc/cpuinfo; xsave stands in for it, because Linux drops
// xsave, avx and avx2 together when it does not enable XSAVE.
func TestAVX2DetectionMatchesCPUInfo(t *testing.T) {
	flags := cpuinfoFlags(t)
	avx2 := cpufeat.Widest() >= cpufeat.AVX2
	switch {
	case !flags["avx2"]:
		if avx2 {
			t.Error("the detector reports AVX2, but /proc/cpuinfo lists no avx2")
		}
	case flags["avx"] && (flags["osxsave"] || flags["xsave"]):
		if !avx2 {
			t.Error("/proc/cpuinfo lists avx2, avx and xsave, but the detector reports no AVX2")
		}
	default:
		t.Logf("avx2 without avx or xsave in /proc/cpuinfo; the detector reports AVX2 = %v", avx2)
	}
}

// TestAVX512DetectionMatchesCPUInfo checks the AVX-512 detector the same
// way: it must report AVX-512 exactly when Linux lists avx512f and
// avx512dq, which Linux also drops when it does not save the ZMM state.
// The detector requires AVX2 as well, so the xsave caveat of the AVX2 test
// carries over.
func TestAVX512DetectionMatchesCPUInfo(t *testing.T) {
	flags := cpuinfoFlags(t)
	avx512 := cpufeat.Widest() == cpufeat.AVX512
	switch {
	case !flags["avx512f"] || !flags["avx512dq"]:
		if avx512 {
			t.Error("the detector reports AVX-512, but /proc/cpuinfo lists no avx512f and avx512dq")
		}
	case flags["avx2"] && flags["avx"] && (flags["osxsave"] || flags["xsave"]):
		if !avx512 {
			t.Error("/proc/cpuinfo lists avx512f, avx512dq, avx2, avx and xsave, but the detector reports no AVX-512")
		}
	default:
		t.Logf("avx512f and avx512dq without avx2, avx or xsave in /proc/cpuinfo; the detector reports AVX-512 = %v", avx512)
	}
}
