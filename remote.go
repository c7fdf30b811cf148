package medmaker

import (
	"time"

	"medmaker/internal/remote"
)

// RemoteServer exposes a Source (a wrapper or a whole mediator) over TCP,
// for the distributed TSIMMIS deployment of Figure 1.1.
type RemoteServer = remote.Server

// RemoteClient is a Source backed by a RemoteServer elsewhere.
type RemoteClient = remote.Client

// ProtoFramed is the wire protocol version RemoteClient.Proto reports:
// multiplexed frames on one connection, answers in the OEM answer codec.
// Peers of other versions fail at the handshake.
const ProtoFramed = remote.ProtoFramed

// Serve starts serving src on addr (use "127.0.0.1:0" for an ephemeral
// port) and returns the bound address and the running server.
func Serve(src Source, addr string) (string, *RemoteServer, error) {
	srv := remote.NewServer(src)
	bound, err := srv.Start(addr)
	if err != nil {
		return "", nil, err
	}
	return bound, srv, nil
}

// DialSource connects to a remote source. The returned client carries the
// remote side's name and capabilities and plugs into Config.Sources like
// any local wrapper. A zero timeout means 10 seconds.
func DialSource(addr string, timeout time.Duration) (*RemoteClient, error) {
	return remote.Dial(addr, timeout)
}
