//go:build unix

package base

// Unix resolves only if the loader admits the unix tag, which go build
// sets on every unix-like GOOS.
const Unix = true
