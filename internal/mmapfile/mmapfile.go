// Package mmapfile hands the store loader a file's bytes and hides where
// they came from: a read-only mapping wherever mmap(2) exists and
// succeeds, the file read into memory otherwise. The store parser takes
// either — it only ever sees a []byte — so which one a platform gets is
// decided here, by build tag and by the mmap call's own result, and
// nowhere else.
//
// A mapping is PROT_READ: writing through a view of it faults, which is
// the contract the store wants — mutations after load (WAL replay,
// asserts) rebuild predicates on the heap and never touch the base image.
package mmapfile

import "os"

// Mapping is one file's bytes. When they are a mapping the file
// descriptor is already closed (the mapping survives it), so a Mapping
// holds address space only.
type Mapping struct {
	data   []byte
	mapped bool
}

// Map returns path's bytes, mapped read-only if the platform can and
// read into memory if it cannot.
func Map(path string) (*Mapping, error) {
	if data, err := mapFile(path); err == nil {
		return &Mapping{data: data, mapped: true}, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return &Mapping{data: data}, nil
}

// Data returns the file's bytes. The slice is valid until Close and must
// not be written: a mapped one faults.
func (m *Mapping) Data() []byte { return m.data }

// Mapped reports whether Data is a file mapping rather than a copy in
// memory. A nil Mapping is not mapped.
func (m *Mapping) Mapped() bool { return m != nil && m.mapped }

// Close releases the bytes; views into Data must not be used afterwards.
// Closing a nil or closed Mapping is a no-op.
func (m *Mapping) Close() error {
	if m == nil || m.data == nil {
		return nil
	}
	data, mapped := m.data, m.mapped
	m.data, m.mapped = nil, false
	if !mapped {
		return nil
	}
	return unmap(data)
}
