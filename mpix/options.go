package mpix

import (
	"gompix/internal/mpi"
	"gompix/internal/transport"
)

// Option configures NewWorld. The functional options below cover the
// common knobs; a full Config value is itself an Option (it replaces
// the entire configuration, so pass it first — or alone — and layer
// finer options after it). Existing Config-based call sites therefore
// keep working unchanged:
//
//	mpix.NewWorld(mpix.Config{Procs: 2})                  // compatibility path
//	mpix.NewWorld(mpix.WithRanks(4), mpix.WithReliable()) // options path
type Option interface {
	// ApplyWorldOption mutates the configuration being assembled.
	ApplyWorldOption(*mpi.Config)
}

// optionFunc adapts a closure to Option.
type optionFunc func(*mpi.Config)

func (f optionFunc) ApplyWorldOption(c *mpi.Config) { f(c) }

// WithRanks sets the number of ranks in the world (Config.Procs).
func WithRanks(n int) Option {
	return optionFunc(func(c *mpi.Config) { c.Procs = n })
}

// WithRank sets this process's world rank (Config.Rank). Only
// meaningful with a multiprocess transport.
func WithRank(r int) Option {
	return optionFunc(func(c *mpi.Config) { c.Rank = r })
}

// WithTransport selects the netmod backend (Config.Transport): the
// simulated fabric when absent, or e.g. a TCP transport from
// NewTCPTransport for a multiprocess job.
func WithTransport(t Transport) Option {
	return optionFunc(func(c *mpi.Config) { c.Transport = t })
}

// WithMetrics wires every runtime layer to the registry
// (Config.Metrics).
func WithMetrics(reg *MetricsRegistry) Option {
	return optionFunc(func(c *mpi.Config) { c.Metrics = reg })
}

// WithFaults installs a fault schedule on the simulated fabric
// (Config.Fabric.Faults); any active schedule auto-enables the
// reliability protocol.
func WithFaults(fc FaultConfig) Option {
	return optionFunc(func(c *mpi.Config) { c.Fabric.Faults = fc })
}

// WithFabric replaces the simulated-interconnect configuration
// (Config.Fabric).
func WithFabric(fc FabricConfig) Option {
	return optionFunc(func(c *mpi.Config) { c.Fabric = fc })
}

// WithReliable enables the netmod reliability protocol
// (Config.Reliable) regardless of fault injection.
func WithReliable() Option {
	return optionFunc(func(c *mpi.Config) { c.Reliable = true })
}

// WithTracer installs a protocol-event sink (Config.Tracer).
func WithTracer(fn func(TraceEvent)) Option {
	return optionFunc(func(c *mpi.Config) { c.Tracer = fn })
}

// WithGlobalLock serializes each rank's MPI calls behind one mutex,
// modeling legacy global-lock MPI implementations (Config.GlobalLock).
func WithGlobalLock() Option {
	return optionFunc(func(c *mpi.Config) { c.GlobalLock = true })
}

// WithProcsPerNode maps ranks onto simulated nodes
// (Config.ProcsPerNode).
func WithProcsPerNode(n int) Option {
	return optionFunc(func(c *mpi.Config) { c.ProcsPerNode = n })
}

// Transport is a netmod backend (see WithTransport).
type Transport = transport.Transport
