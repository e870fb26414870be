// Package wallclock seeds one violation per wallclock diagnostic form.
package wallclock

import (
	"time"

	clock "time"
)

func measure() time.Duration {
	start := time.Now() // want `real clock read time\.Now`
	work()
	time.Sleep(time.Millisecond) // want `real clock read time\.Sleep`
	return time.Since(start)     // want `real clock read time\.Since`
}

func aliased() {
	_ = clock.Now() // want `real clock read time\.Now`
}

// Config injects its clock; handing it time.Now is a clock read as surely
// as calling it.
type Config struct {
	Clock func() time.Time
}

func injected() Config {
	clock := time.Now // want `real clock read time\.Now`
	_ = clock
	return Config{Clock: time.Now} // want `real clock read time\.Now`
}

func notTheClock() {
	// Duration arithmetic and constants are fine: no clock is read.
	d := 5 * time.Second
	_ = d.Round(time.Millisecond)

	// A local identifier shadowing the import is not the time package.
	time := fakeClock{}
	_ = time.Now()
}

type fakeClock struct{}

func (fakeClock) Now() int64 { return 0 }

func work() {}
