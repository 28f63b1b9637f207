package clausefile

import (
	"encoding/binary"
	"unsafe"

	"clare/internal/pif"
)

// hostLittleEndian reports whether uint32 loads read little-endian bytes
// — the condition for viewing the store's little-endian word section
// without decoding.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// wordsView returns a little-endian word section as []pif.Word. It is the
// one place that can observe whether the bytes are readable in place: on
// a little-endian host with b word-aligned in memory (any blob of a store
// image that is mapped, or read whole into one buffer) the result is a
// view of b itself; on big-endian hosts and misaligned buffers it is a
// decoded copy. Callers cannot tell the two apart, so a store built
// anywhere loads everywhere.
func wordsView(b []byte) []pif.Word {
	if len(b) == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%unsafe.Alignof(pif.Word(0)) == 0 {
		return unsafe.Slice((*pif.Word)(unsafe.Pointer(&b[0])), len(b)/4)
	}
	words := make([]pif.Word, len(b)/4)
	for i := range words {
		words[i] = pif.Word(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return words
}
