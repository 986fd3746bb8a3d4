// Package simd is a suppression fixture: it mimics a deterministic
// package so detrand fires, and exercises //lint:allow handling.  The
// expectations live in TestAllowDirectives, not in want comments.
package simd

import "time"

var epoch time.Time

// Logged uses a trailing directive with a reason and is suppressed.
func Logged() time.Duration {
	return time.Since(epoch) //lint:allow detrand wall-clock used for operator logging only
}

// Above uses the directive on the preceding line and is suppressed.
func Above() time.Time {
	//lint:allow detrand fixture demonstrating the above-line form
	return time.Now()
}

// Wrapped demonstrates the multi-line form: the directive sits above a
// statement that spans several lines, and suppresses a finding on any of
// them, not just the first.
func Wrapped() []time.Time {
	//lint:allow detrand the directive anchors to the statement start, later lines included
	stamps := []time.Time{
		time.Now(),
	}
	return stamps
}

// Bad has a directive without a reason: the directive itself is reported
// and the underlying finding survives.
func Bad() time.Time {
	return time.Now() //lint:allow detrand
}

// Unknown names a nonexistent analyzer: it suppresses nothing, so it is
// listed as unused, and the finding survives.
func Unknown() time.Time {
	return time.Now() //lint:allow nosuchcheck this analyzer does not exist
}

// Mismatched allows the wrong analyzer, so the detrand finding stays.
func Mismatched() time.Time {
	return time.Now() //lint:allow errdrop wrong analyzer on purpose
}
