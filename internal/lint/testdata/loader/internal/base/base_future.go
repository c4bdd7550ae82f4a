//go:build go1.999

package base

// hostWidth would redeclare the host file's constant if the loader
// admitted a file for a Go release newer than the toolchain.
const hostWidth = 128
