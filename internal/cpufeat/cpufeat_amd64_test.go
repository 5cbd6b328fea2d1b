//go:build linux

package cpufeat_test

import (
	"os"
	"strings"
	"testing"

	"lvmajority/internal/cpufeat"
)

// TestAVX2DetectionMatchesCPUInfo checks the CPUID detector against the
// flags Linux reports, so that a broken check cannot quietly turn every
// amd64 run into a test of the Go rounds alone. Linux does not list
// osxsave in /proc/cpuinfo; xsave stands in for it, because Linux drops
// xsave, avx and avx2 together when it does not enable XSAVE.
func TestAVX2DetectionMatchesCPUInfo(t *testing.T) {
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
	switch {
	case !flags["avx2"]:
		if cpufeat.AVX2() {
			t.Error("the detector reports AVX2, but /proc/cpuinfo lists no avx2")
		}
	case flags["avx"] && (flags["osxsave"] || flags["xsave"]):
		if !cpufeat.AVX2() {
			t.Error("/proc/cpuinfo lists avx2, avx and xsave, but the detector reports no AVX2")
		}
	default:
		t.Logf("avx2 without avx or xsave in /proc/cpuinfo; the detector reports AVX2 = %v", cpufeat.AVX2())
	}
}
