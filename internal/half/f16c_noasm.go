//go:build !amd64 || purego

package half

// encodeVec reports that no hardware converter covered any element.
func encodeVec(dst []uint16, src []float32) int { return 0 }

// quantizeVec reports that no hardware converter covered any element.
func quantizeVec(dst, src []float32) (n int, overflow bool) { return 0, false }

// decodeVec reports that no hardware converter covered any element.
func decodeVec(dst []float32, src []uint16) int { return 0 }
