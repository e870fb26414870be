package ironsafe

import (
	"fmt"

	"ironsafe/internal/ingest"
)

// IngestPipeline assembles a durable streaming-ingest pipeline over the
// cluster's storage nodes (the data-owning side of the split and sos
// configurations): Storage[0] is the authority whose group commits anchor
// acks, any further nodes replicate every batch in order. The cluster's
// monitor gates every record (policy compliance, timely deletion, audit) and
// the cluster epoch is bound into each authorization. Caller-supplied knobs
// (BatchMax, QueueMax, RetryAfter, Budget, OnNodeDown, Logf) pass through.
func (c *Cluster) IngestPipeline(opts ingest.Config) (*ingest.Pipeline, error) {
	if c.hostDB != nil {
		return nil, fmt.Errorf("ironsafe: mode %s keeps data on the host; ingest targets storage-owning modes", c.cfg.Mode)
	}
	nodes := make([]ingest.Node, 0, len(c.Storage))
	for _, s := range c.Storage {
		nodes = append(nodes, ingest.NewServerNode(s))
	}
	opts.Nodes = nodes
	if opts.Authorizer == nil {
		opts.Authorizer = c.Monitor
	}
	if opts.Database == "" {
		opts.Database = c.database
	}
	if opts.HostID == "" {
		opts.HostID = "host-1"
	}
	if opts.Epoch == nil {
		opts.Epoch = c.Epoch
	}
	return ingest.New(opts)
}
