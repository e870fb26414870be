// Command ironsafe-monitor runs the trusted monitor as a standalone service:
// it attests the storage node over its control port at startup (trust on
// first use for the normal-world measurement, logged in the audit trail),
// accepts host registrations, authorizes queries, distributes session keys,
// and serves the audit trail.
//
// Usage:
//
//	ironsafe-monitor -ctl :7100 -psk secret \
//	    -storage-ctl 127.0.0.1:7101 -storage-data 127.0.0.1:7102 \
//	    -access-policy 'read :- sessionKeyIs(Ka)'
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"ironsafe/cmd/internal/deploy"
	"ironsafe/internal/ctl"
	"ironsafe/internal/monitor"
	"ironsafe/internal/policy"
	"ironsafe/internal/tee/sgx"
	"ironsafe/internal/tee/trustzone"
)

// remoteStorage adapts the storage control channel to StorageAttester.
type remoteStorage struct {
	client *ctl.Client
	info   monitor.NodeInfo
}

func (r *remoteStorage) Attest(challenge []byte) (*trustzone.AttestationReport, error) {
	var report trustzone.AttestationReport
	if err := r.client.Call("attest", deploy.AttestReq{Challenge: challenge}, &report); err != nil {
		return nil, err
	}
	return &report, nil
}

func (r *remoteStorage) Info() monitor.NodeInfo { return r.info }

func main() {
	ctlAddr := flag.String("ctl", "127.0.0.1:7100", "control listen address")
	psk := flag.String("psk", "", "deployment provisioning key (required)")
	storageCtl := flag.String("storage-ctl", "127.0.0.1:7101", "storage control address")
	storageData := flag.String("storage-data", "127.0.0.1:7102", "storage data address (handed to hosts)")
	accessPolicy := flag.String("access-policy", "", "access policy source (required)")
	hostFW := flag.String("latest-host-fw", "2.1", "latest host firmware version")
	storageFW := flag.String("latest-storage-fw", "3.4", "latest storage firmware version")
	flag.Parse()
	if *psk == "" || *accessPolicy == "" {
		fatal("-psk and -access-policy are required")
	}
	pol, err := policy.Parse(*accessPolicy)
	if err != nil {
		fatal("access policy: %v", err)
	}

	key := sha256.Sum256([]byte(*psk))
	storage, err := ctl.Dial(*storageCtl, key[:])
	if err != nil {
		fatal("dialing storage control: %v", err)
	}
	var hello deploy.HelloResp
	if err := storage.Call("hello", nil, &hello); err != nil {
		fatal("storage hello: %v", err)
	}

	ias := sgx.NewAttestationService()
	mon, err := monitor.New(monitor.Config{
		IAS:             ias,
		LatestHostFW:    *hostFW,
		LatestStorageFW: *storageFW,
		// The deployed monitor stamps sessions and audit entries with real
		// time; only in-process simulations substitute a virtual clock.
		Clock: func() int64 { return time.Now().UnixNano() }, //ironsafe:allow wallclock -- deployed-service timestamps
	})
	if err != nil {
		fatal("%v", err)
	}
	mon.SetAccessPolicy("db", pol)
	mon.AddROTPK(hello.Vendor, hello.ROTPK)

	// Trust-on-first-use for the storage normal world: fetch its attested
	// measurement once over the provisioning channel, whitelist it, then
	// run the real challenge-response registration.
	node := &remoteStorage{client: storage, info: monitor.NodeInfo{ID: hello.ID, Location: hello.Location, FW: hello.FW}}
	probe, err := node.Attest([]byte("tofu-probe"))
	if err != nil {
		fatal("storage probe: %v", err)
	}
	mon.AllowStorageMeasurement(probe.NormalWorld)
	if err := mon.RegisterStorage(hello.Vendor, node); err != nil {
		fatal("storage attestation: %v", err)
	}
	fmt.Printf("storage %s attested (normal world %s)\n", hello.ID, probe.NormalWorld)

	cs := deploy.NewCtlServer("ironsafe-monitor", key[:])
	cs.Handle("register-platform", func(req []byte) (any, error) {
		var r deploy.RegisterPlatformReq
		if err := json.Unmarshal(req, &r); err != nil {
			return nil, err
		}
		ias.RegisterPlatform(r.PlatformID, r.PublicKey)
		return map[string]bool{"ok": true}, nil
	})
	cs.Handle("register-host", func(req []byte) (any, error) {
		var r deploy.RegisterHostReq
		if err := json.Unmarshal(req, &r); err != nil {
			return nil, err
		}
		mon.AllowHostMeasurement(r.Quote.Measurement) // TOFU, audited
		cert, err := mon.RegisterHost(r.Info, r.Quote, r.TransportPub)
		if err != nil {
			return nil, err
		}
		return deploy.RegisterHostResp{Cert: cert, MonitorPub: mon.PublicKey()}, nil
	})
	cs.Handle("authorize", func(req []byte) (any, error) {
		var r monitor.AuthRequest
		if err := json.Unmarshal(req, &r); err != nil {
			return nil, err
		}
		auth, err := mon.Authorize(r)
		if err != nil {
			return nil, err
		}
		// Distribute the session key to the compliant storage node(s).
		for range auth.StorageIDs {
			if err := storage.Call("install-key", deploy.InstallKeyReq{SessionID: auth.SessionID, Key: auth.SessionKey}, nil); err != nil {
				return nil, err
			}
		}
		return deploy.AuthorizeResp{Auth: auth, StorageDataAddr: *storageData}, nil
	})
	cs.Handle("end-session", func(req []byte) (any, error) {
		var r deploy.InstallKeyReq
		if err := json.Unmarshal(req, &r); err != nil {
			return nil, err
		}
		mon.EndSession(r.SessionID)
		storage.Call("revoke-key", deploy.InstallKeyReq{SessionID: r.SessionID}, nil)
		return map[string]bool{"ok": true}, nil
	})
	cs.Handle("audit", func([]byte) (any, error) {
		blob, err := mon.AuditLog().Export()
		if err != nil {
			return nil, err
		}
		return json.RawMessage(blob), nil
	})
	cs.Handle("pubkey", func([]byte) (any, error) {
		return map[string][]byte{"pubkey": mon.PublicKey()}, nil
	})

	ln, err := net.Listen("tcp", *ctlAddr)
	if err != nil {
		fatal("listen: %v", err)
	}
	fmt.Printf("monitor up on %s\n", ln.Addr())
	if err := cs.Serve(ln); err != nil {
		fatal("serve: %v", err)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ironsafe-monitor: "+format+"\n", args...)
	os.Exit(1)
}
