//go:build amd64 && !purego

// Package cpufeat detects, once at start-up, the x86 vector extensions
// the assembly kernels in internal/tensor and internal/half need. It
// is the only place that executes CPUID; each kernel package copies
// the answer into its own unexported variable, which is what its
// in-package tests toggle to compare the vector and generic paths.
package cpufeat

// cpuid executes CPUID for the given leaf and sub-leaf.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0.
func xgetbv() (eax, edx uint32)

var avx2, f16c, fma = detect()

// detect follows the Intel SDM's AVX2 detection sequence: CPUID says
// the instructions exist, OSXSAVE plus XCR0 bits 1 and 2 say the OS
// saves the xmm and ymm state they use across context switches.
func detect() (avx2, f16c, fma bool) {
	const (
		leaf1FMA     = 1 << 12 // ecx
		leaf1OSXSAVE = 1 << 27 // ecx
		leaf1AVX     = 1 << 28 // ecx
		leaf1F16C    = 1 << 29 // ecx
		leaf7AVX2    = 1 << 5  // ebx
		xcr0YMM      = 1<<1 | 1<<2
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return
	}
	_, _, c1, _ := cpuid(1, 0)
	if c1&leaf1OSXSAVE == 0 || c1&leaf1AVX == 0 {
		return
	}
	if lo, _ := xgetbv(); lo&xcr0YMM != xcr0YMM {
		return
	}
	_, b7, _, _ := cpuid(7, 0)
	avx2 = b7&leaf7AVX2 != 0
	return avx2, avx2 && c1&leaf1F16C != 0, c1&leaf1FMA != 0
}

// AVX2 reports whether 256-bit AVX2 kernels may run.
func AVX2() bool { return avx2 }

// F16C reports whether the FP16 conversion kernels may run; they use
// AVX2 integer compares beside VCVTPS2PH/VCVTPH2PS, so it implies AVX2.
func F16C() bool { return f16c }

// FMA reports whether VFMADD*/VFNMADD* may run: the CPUID bit under the
// same OS-saves-ymm precondition as AVX, which is the standard
// library's math.useFMA (HasAVX && HasFMA). The transcendental kernels
// in internal/tensor transcribe the branch math.Exp takes when that is
// true, so they are enabled by exactly this (and AVX2).
func FMA() bool { return fma }
