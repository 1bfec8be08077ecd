package main

import (
	"fmt"
	"syscall"
	"unsafe"
)

// offHeap reserves n zeroed values of T outside the Go heap.  The timed
// windows keep their samples and spans here so that the buffers, which
// are sized for the fastest conceivable run, neither raise the
// collector's heap goal nor get scanned: a benchmark whose own
// bookkeeping made collections rarer would understate what allocation
// costs the system under test.  Untouched pages cost no memory; release
// returns the reservation.
func offHeap[T any](n int) (vals []T, release func(), err error) {
	var zero T
	size := n * int(unsafe.Sizeof(zero))
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, nil, fmt.Errorf("reserve %d bytes off heap: %w", size, err)
	}
	// Unmapping one's own anonymous mapping cannot fail.
	return unsafe.Slice((*T)(unsafe.Pointer(&mem[0])), n), func() { _ = syscall.Munmap(mem) }, nil
}
