//go:build !unix

package mmapfile

import "errors"

func mapFile(string) ([]byte, error) { return nil, errors.ErrUnsupported }

func unmap([]byte) error { return nil }
