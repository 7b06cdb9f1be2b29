//go:build !hatdebug

package hatdebug

// On reports whether the sanitizer is built in.
const On = false
