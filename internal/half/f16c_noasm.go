//go:build !amd64 || purego

package half

// encodeVec reports that no hardware converter covered any element.
func encodeVec(dst []uint16, src []float32) int { return 0 }

// quantizeVec reports that no hardware converter covered any element.
func quantizeVec(x []float32) (n int, overflow bool) { return 0, false }
