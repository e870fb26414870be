// Package deploy is what the deployed binaries (ironsafe-monitor, -host,
// -storage and -client) share: the hardened control server and the
// control-plane request and response types each side of a ctl call encodes.
package deploy

import (
	"fmt"
	"os"
	"time"

	"ironsafe/internal/ctl"
	"ironsafe/internal/monitor"
	"ironsafe/internal/resilience"
	"ironsafe/internal/tee/sgx"
	"ironsafe/internal/value"
)

// NewCtlServer returns a control server under the deployment hardening:
// diagnostics to stderr prefixed with the binary's name, bounded concurrent
// connections, a handshake deadline per accepted connection, and accept-error
// backoff.
func NewCtlServer(binary string, key []byte) *ctl.Server {
	s := ctl.NewServer(key)
	s.Logf = func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, binary+": "+format+"\n", args...)
	}
	s.MaxConns = 128
	s.MaxQueue = 32
	s.RetryAfter = time.Second
	s.HandshakeTimeout = 3 * time.Second
	s.AcceptBackoff = 100 * time.Millisecond
	s.Sleep = resilience.RealSleep
	return s
}

// HelloResp is the storage node's answer to "hello": its identity and the
// vendor root-of-trust key the monitor checks its attestation against.
type HelloResp struct {
	ID       string `json:"id"`
	Location string `json:"location"`
	FW       string `json:"fw"`
	Vendor   string `json:"vendor"`
	ROTPK    []byte `json:"rotpk"`
}

// AttestReq carries the monitor's attestation challenge to storage.
type AttestReq struct {
	Challenge []byte `json:"challenge"`
}

// InstallKeyReq names a session (and, for "install-key", its key) in the
// install-key, revoke-key and end-session calls.
type InstallKeyReq struct {
	SessionID string `json:"session_id"`
	Key       []byte `json:"key"`
}

// RegisterPlatformReq provisions a host platform's attestation key.
type RegisterPlatformReq struct {
	PlatformID string `json:"platform_id"`
	PublicKey  []byte `json:"public_key"`
}

// RegisterHostReq attests a host enclave to the monitor.
type RegisterHostReq struct {
	Info         monitor.NodeInfo `json:"info"`
	Quote        sgx.Quote        `json:"quote"`
	TransportPub []byte           `json:"transport_pub"`
}

// RegisterHostResp is the monitor-issued host certificate.
type RegisterHostResp struct {
	Cert       []byte `json:"cert"`
	MonitorPub []byte `json:"monitor_pub"`
}

// AuthorizeResp is the monitor's authorization and where to offload.
type AuthorizeResp struct {
	Auth            *monitor.Authorization `json:"auth"`
	StorageDataAddr string                 `json:"storage_data_addr"`
}

// SchemaResp is the storage catalog the host's partitioner plans against.
type SchemaResp struct {
	Tables map[string][]SchemaCol `json:"tables"`
}

// SchemaCol is one column of a SchemaResp table.
type SchemaCol struct {
	Name string     `json:"name"`
	Kind value.Kind `json:"kind"`
}

// QueryReq is what ironsafe-client sends the host.
type QueryReq struct {
	ClientKey  string `json:"client_key"`
	SQL        string `json:"sql"`
	ExecPolicy string `json:"exec_policy,omitempty"`
	AccessDate string `json:"access_date,omitempty"`
}

// QueryResp is the client-visible result.
type QueryResp struct {
	Columns []string      `json:"columns"`
	Rows    [][]string    `json:"rows"`
	Proof   monitor.Proof `json:"proof"`
	Session string        `json:"session"`
	Shipped int64         `json:"rows_shipped"`
	Bytes   int64         `json:"bytes_shipped"`
	Rewrite string        `json:"rewritten_sql"`
}
