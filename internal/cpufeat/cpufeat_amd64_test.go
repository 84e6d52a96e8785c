//go:build amd64 && !purego

package cpufeat

import (
	"os"
	"strings"
	"testing"
)

// TestMatchesKernelReport compares the hand-rolled CPUID/XGETBV
// sequence with the flags line the Linux kernel derives from the same
// registers. A kernel that does not save ymm state hides avx from that
// line, so agreement covers the XCR0 check too.
func TestMatchesKernelReport(t *testing.T) {
	if F16C() && !AVX2() {
		t.Fatal("F16C() without AVX2(): the conversion kernels use AVX2 compares")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no kernel report to compare with: %v", err)
	}
	var flags map[string]bool
	for _, line := range strings.Split(string(info), "\n") {
		if name, list, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			flags = map[string]bool{}
			for _, f := range strings.Fields(list) {
				flags[f] = true
			}
			break
		}
	}
	if flags == nil {
		t.Skip("/proc/cpuinfo has no flags line")
	}
	if got, want := AVX2(), flags["avx"] && flags["avx2"]; got != want {
		t.Errorf("AVX2() = %v, /proc/cpuinfo says %v", got, want)
	}
	if got, want := F16C(), flags["avx"] && flags["avx2"] && flags["f16c"]; got != want {
		t.Errorf("F16C() = %v, /proc/cpuinfo says %v", got, want)
	}
	if got, want := FMA(), flags["avx"] && flags["fma"]; got != want {
		t.Errorf("FMA() = %v, /proc/cpuinfo says %v", got, want)
	}
}
