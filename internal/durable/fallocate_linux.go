package durable

import (
	"os"
	"syscall"
)

// fallocate allocates f's first size bytes, keeping what is written and
// growing the file to at least size. A filesystem that cannot answers
// EOPNOTSUPP, which is errors.ErrUnsupported.
func fallocate(f *os.File, size int64) error {
	var err error = syscall.EINTR
	for err == syscall.EINTR {
		err = syscall.Fallocate(int(f.Fd()), 0, 0, size)
	}
	return os.NewSyscallError("fallocate", err)
}
