//go:build !amd64 || purego

// Package cpufeat detects the x86 vector extensions the assembly
// kernels in internal/tensor and internal/half need. On other
// architectures, or under the purego build tag, there are no such
// kernels and every answer is false.
package cpufeat

// AVX2 reports whether 256-bit AVX2 kernels may run.
func AVX2() bool { return false }

// F16C reports whether the FP16 conversion kernels may run.
func F16C() bool { return false }

// FMA reports whether fused multiply-add kernels may run.
func FMA() bool { return false }
