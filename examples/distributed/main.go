// Command distributed runs the TSIMMIS architecture of the paper's
// Figure 1.1 over real network connections, composed the way a deployed
// federation grows: the whois population is hash-partitioned across two
// shard servers and rejoined behind one logical source, a sub-mediator
// integrates that partition with the cs wrapper, and a top mediator
// registers the served sub-mediator as just another source — wrappers,
// partitions, and mediators are interchangeable, so tiers stack. Every
// hop speaks the framed remote protocol: one multiplexed connection per
// peer, with OEM answers in the binary answer codec.
package main

import (
	"fmt"
	"log"
	"time"

	"medmaker"
	"medmaker/internal/oem"
)

// dial connects to addr and reports the negotiated wire protocol.
func dial(addr string) *medmaker.RemoteClient {
	c, err := medmaker.DialSource(addr, time.Second)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dialed %-6s at %s  protocol: framed v%d\n", c.Name(), addr, c.Proto())
	return c
}

func serve(src medmaker.Source) (string, *medmaker.RemoteServer) {
	addr, srv, err := medmaker.Serve(src, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	return addr, srv
}

func main() {
	// --- The cs wrapper process: one relational server. ---
	db := medmaker.NewRelationalDB()
	emp := db.MustCreateTable(medmaker.RelationalSchema{
		Name: "employee",
		Columns: []medmaker.RelationalColumn{
			{Name: "first_name", Kind: oem.KindString},
			{Name: "last_name", Kind: oem.KindString},
			{Name: "title", Kind: oem.KindString},
		},
	})
	emp.MustInsert("Joe", "Chung", "professor")
	emp.MustInsert("Sally", "Stanford", "dean")
	csAddr, csSrv := serve(medmaker.NewRelationalWrapper("cs", db))
	defer csSrv.Close()
	fmt.Printf("wrapper cs     listening on %s\n", csAddr)

	// --- The whois tier: the same person extent hash-partitioned across
	// two shard servers by the <name> field. Each shard holds exactly the
	// people whose name hashes to it. ---
	const shards = 2
	stores := make([]*medmaker.RecordStore, shards)
	for i := range stores {
		stores[i] = medmaker.NewRecordStore()
	}
	for _, p := range []struct{ name, relation, email string }{
		{"Joe Chung", "employee", "chung@cs"},
		{"Sally Stanford", "employee", "sally@cs"},
	} {
		stores[medmaker.ShardOf(p.name, shards)].MustAdd(medmaker.Record{
			Kind: "person", Fields: []medmaker.RecordField{
				{Name: "name", Value: p.name},
				{Name: "dept", Value: "CS"},
				{Name: "relation", Value: p.relation},
				{Name: "e_mail", Value: p.email},
			}})
	}
	whoisMembers := make([]medmaker.Source, shards)
	for i, st := range stores {
		addr, srv := serve(medmaker.NewRecordWrapper(fmt.Sprintf("whois%d", i), st))
		defer srv.Close()
		fmt.Printf("shard  whois%d  listening on %s (%d records)\n", i, addr, st.Len())
		member := dial(addr)
		defer member.Close()
		whoisMembers[i] = member
	}
	// One logical whois source over the shard members: queries that bind
	// <name> route to the one shard the key hashes to; anything else
	// scatters to every member and gathers the union.
	whois, err := medmaker.NewPartitionedSource("whois", "name", whoisMembers...)
	if err != nil {
		log.Fatal(err)
	}

	// --- The sub-mediator process integrates cs and the whois partition
	// under the paper's MS1-style view, and is itself served. ---
	csRemote := dial(csAddr)
	defer csRemote.Close()
	sub, err := medmaker.New(medmaker.Config{
		Name: "sub",
		Spec: `
		<cs_person {<name N> <relation R> Rest1 Rest2}> :-
		    <person {<name N> <dept 'CS'> <relation R> | Rest1}>@whois
		    AND <R {<first_name FN> <last_name LN> | Rest2}>@cs
		    AND decomp(N, LN, FN).
		decomp(bound, free, free) by name_to_lnfn.`,
		Sources: []medmaker.Source{csRemote, whois},
	})
	if err != nil {
		log.Fatal(err)
	}
	subAddr, subSrv := serve(sub)
	defer subSrv.Close()
	fmt.Printf("mediator sub   listening on %s\n", subAddr)

	// --- The top mediator registers the served sub-mediator as a source:
	// a mediator over a mediator, the composed tier of Figure 1.1. ---
	subRemote := dial(subAddr)
	defer subRemote.Close()
	top, err := medmaker.New(medmaker.Config{
		Name:    "med",
		Spec:    `<cs_person {<name N> | R}> :- <cs_person {<name N> | R}>@sub.`,
		Sources: []medmaker.Source{subRemote},
	})
	if err != nil {
		log.Fatal(err)
	}
	medAddr, medSrv := serve(top)
	defer medSrv.Close()
	app := dial(medAddr)
	defer app.Close()
	fmt.Println()

	// A point query binds <name>, so the whois leg routes to exactly one
	// shard; the answer crosses three network hops on the way back.
	point, err := medmaker.ParseQuery(`JC :- JC:<cs_person {<name 'Joe Chung'>}>@med.`)
	if err != nil {
		log.Fatal(err)
	}
	objs, err := app.Query(point)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("routed point query through app -> med -> sub -> {cs, whois shard}:")
	fmt.Print(medmaker.FormatOEM(objs...))

	// A scan binds nothing, so the whois leg scatters to both shards and
	// the partition gathers the union before the join.
	scan, err := medmaker.ParseQuery(`P :- P:<cs_person {<name N>}>@med.`)
	if err != nil {
		log.Fatal(err)
	}
	objs, err = app.Query(scan)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nscatter/gather scan over both shards:")
	fmt.Print(medmaker.FormatOEM(objs...))
}
