//go:build !linux

package durable

import (
	"errors"
	"os"
)

// fallocate is unsupported off Linux: segments grow by writes.
func fallocate(*os.File, int64) error { return errors.ErrUnsupported }
