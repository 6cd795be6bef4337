package mpix

// Re-exports of the user-level libraries built on the extension APIs —
// each one a demonstration of the paper's §2.7 thesis that
// interoperable progress lets MPI subsystems live outside the core:
//
//   - rma:     one-sided communication (windows, Put/Get/Accumulate,
//              fence epochs) over MPIX Async + Peek.
//   - future:  event-driven futures/promises resolved inside progress.
//   - sched:   the MPIX Schedule proposal (§5.3) over MPIX Async.
//   - offload: a simulated accelerator whose queues are progressed as
//              MPIX Async things.

import (
	"gompix/internal/future"
	"gompix/internal/offload"
	"gompix/internal/rma"
	"gompix/internal/sched"
)

// Win is a one-sided communication window (user-level MPI_Win).
type Win = rma.Win

// WinCreate exposes base on every rank of comm (MPI_Win_create).
// Collective.
func WinCreate(comm *Comm, base []byte) *Win { return rma.Create(comm, base) }

// ErrRMARange reports a one-sided operation outside the target window.
var ErrRMARange = rma.ErrRange

// Future is a write-once value resolved from a progress context.
type Future = future.Future

// Promise resolves a Future from application code.
type Promise = future.Promise

// Executor binds futures to a progress stream.
type Executor = future.Executor

// NewPromise returns a promise and its future.
func NewPromise() (*Promise, *Future) { return future.NewPromise() }

// NewExecutor returns an executor on the given stream (nil = NULL).
func NewExecutor(p *Proc, s *Stream) *Executor { return future.NewExecutor(p, s) }

// WhenAll resolves when every input resolves.
func WhenAll(fs ...*Future) *Future { return future.WhenAll(fs...) }

// WhenAny resolves with the first input to resolve.
func WhenAny(fs ...*Future) *Future { return future.WhenAny(fs...) }

// Schedule is a user-constructed schedule of rounds of MPI operations
// (the MPIX Schedule proposal): a builder over the schedule engine the
// library's own collectives run on, which is an MPIX Async thing. An
// operation that completes with an error ends the schedule; later
// rounds are not issued and the committed request carries the error.
type Schedule = sched.Schedule

// NewSchedule creates an empty schedule progressed by the given stream.
func NewSchedule(p *Proc, s *Stream) *Schedule { return sched.New(p, s) }

// ScheduleLocal wraps a local step as a schedule operation.
func ScheduleLocal(fn func()) sched.Op { return sched.Local(fn) }

// Device is a simulated accelerator.
type Device = offload.Device

// DeviceQueue is a FIFO device queue (CUDA-stream analogue).
type DeviceQueue = offload.Queue

// DeviceConfig models the accelerator's performance envelope.
type DeviceConfig = offload.Config

// NewDevice creates a simulated accelerator on the proc's clock.
func NewDevice(p *Proc, cfg DeviceConfig) *Device {
	return offload.NewDevice(p.Engine().Clock(), cfg)
}
