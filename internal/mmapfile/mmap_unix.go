//go:build unix

package mmapfile

import (
	"fmt"
	"os"
	"syscall"
)

func mapFile(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size != int64(int(size)) {
		return nil, fmt.Errorf("mmapfile: %s: %d bytes exceeds address space", path, size)
	}
	return syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
}

func unmap(data []byte) error { return syscall.Munmap(data) }
