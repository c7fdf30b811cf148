package medmaker

import (
	"io"
	"net/http"
	"time"

	"medmaker/internal/jsonhttp"
	"medmaker/internal/oem"
	"medmaker/internal/oemstore"
	"medmaker/internal/relational"
	"medmaker/internal/semistruct"
	"medmaker/internal/streamsource"
	"medmaker/internal/wrapper"
	"medmaker/internal/xmlsource"
)

// Substrate re-exports: the bundled source implementations, so
// applications can stand up the paper's style of wrappers without touching
// internal packages.
type (
	// OEMSource stores OEM objects natively (fully capable).
	OEMSource = oemstore.Source
	// RelationalDB is the small in-memory relational engine.
	RelationalDB = relational.DB
	// RelationalSchema describes one relation.
	RelationalSchema = relational.Schema
	// RelationalColumn describes one attribute.
	RelationalColumn = relational.Column
	// RelationalWrapper exports a RelationalDB as OEM (the paper's cs
	// wrapper).
	RelationalWrapper = relational.Wrapper
	// RecordStore holds irregular semi-structured records.
	RecordStore = semistruct.Store
	// Record is one irregular record.
	Record = semistruct.Record
	// RecordField is one named field of a Record.
	RecordField = semistruct.Field
	// RecordWrapper exports a RecordStore as OEM (the paper's whois
	// wrapper).
	RecordWrapper = semistruct.Wrapper
	// LimitedSource restricts an inner source's capabilities, modelling
	// the autonomous, capability-poor sources of Section 3.5.
	LimitedSource = wrapper.Limited
	// PartitionedSource presents N member sources holding a
	// hash-partitioned extent as one logical source: point queries on the
	// partition key route to their shard, everything else scatters and
	// gathers. A failed member leaves the surviving members' union, which
	// the query's ExecPolicy keeps or rejects with the failure attributed
	// to the member.
	PartitionedSource = wrapper.Partitioned
	// ReplicatedSource presents N answer-equivalent member sources as one
	// logical source. Each exchange goes to the member with the best
	// observed latency/error score and fails over to the next-best member
	// on error, so one healthy replica keeps the source answering.
	ReplicatedSource = wrapper.Replicas
	// SourceDelta describes one source mutation: the top-level objects it
	// inserted and deleted. Sources emit deltas to ChangeNotifier
	// subscribers; a mediator subscribes to every registered source and
	// delta-maintains its answer caches and materialized views.
	SourceDelta = wrapper.Delta
	// ChangeNotifier is the change-feed capability: sources that can
	// describe their own mutations implement it (all bundled mutable
	// sources do), letting consumers apply deltas instead of dropping
	// derived state wholesale.
	ChangeNotifier = wrapper.Notifier
	// XMLSource serves XML documents mapped into OEM — elements become
	// subobjects, attributes atomic children — with condition pushdown
	// into its label index.
	XMLSource = xmlsource.Source
	// XMLMapping configures the XML<->OEM mapping (root handling, text
	// label).
	XMLMapping = xmlsource.Mapping
	// HTTPSource queries a remote JSON-over-HTTP endpoint as an OEM
	// source, pushing equality conditions into query parameters and
	// retrying transient failures.
	HTTPSource = jsonhttp.Source
	// HTTPSourceOption customizes an HTTPSource (client, retry policy).
	HTTPSourceOption = jsonhttp.Option
	// HTTPHandler serves any OEM extent in the jsonhttp wire format — the
	// server half of HTTPSource, for tests and Go-hosted endpoints.
	HTTPHandler = jsonhttp.Handler
	// StreamSource is a bounded append-only event log: appends emit
	// change-feed deltas, retention evicts by count and age.
	StreamSource = streamsource.Source
	// StreamOptions configures a StreamSource's retention.
	StreamOptions = streamsource.Options
)

// NewOEMSource returns an empty OEM-native source.
func NewOEMSource(name string) *OEMSource { return oemstore.New(name) }

// NewOEMSourceFromText parses textual OEM data into a new source.
func NewOEMSourceFromText(name, text string) (*OEMSource, error) {
	return oemstore.FromText(name, text)
}

// NewOEMSourceFromFile loads a textual OEM file into a new source.
func NewOEMSourceFromFile(name, path string) (*OEMSource, error) {
	return oemstore.FromFile(name, path)
}

// NewOEMSourceFromJSON builds a source from a JSON document: a top-level
// array yields one OEM object per element, labelled label.
func NewOEMSourceFromJSON(name, label string, data []byte) (*OEMSource, error) {
	return oemstore.FromJSON(name, label, data)
}

// NewOEMSourceFromJSONFile loads a JSON file into a new source.
func NewOEMSourceFromJSONFile(name, label, path string) (*OEMSource, error) {
	return oemstore.FromJSONFile(name, label, path)
}

// LoadCSV reads header-first CSV data into a new table named tableName in
// db, inferring column types. Wrap the db with NewRelationalWrapper to
// query it.
func LoadCSV(db *RelationalDB, tableName string, r io.Reader) error {
	_, err := relational.LoadCSV(db, tableName, r)
	return err
}

// ParseJSONToOEM converts a JSON document into an OEM object labelled
// label (see the oem package for the mapping).
func ParseJSONToOEM(label string, data []byte) (*Object, error) {
	return oem.FromJSON(label, data)
}

// FormatOEMAsJSON renders an OEM object as JSON.
func FormatOEMAsJSON(o *Object) ([]byte, error) {
	return oem.ToJSON(o)
}

// NewRelationalDB returns an empty relational database.
func NewRelationalDB() *RelationalDB { return relational.NewDB() }

// NewRelationalWrapper exports db as the named OEM source.
func NewRelationalWrapper(name string, db *RelationalDB) *RelationalWrapper {
	return relational.NewWrapper(name, db)
}

// NewRecordStore returns an empty irregular-record store.
func NewRecordStore() *RecordStore { return semistruct.NewStore() }

// NewRecordWrapper exports store as the named OEM source.
func NewRecordWrapper(name string, store *RecordStore) *RecordWrapper {
	return semistruct.NewWrapper(name, store)
}

// NewPartitionedSource builds the logical source name over members,
// partitioned by the value of the keyLabel subobject: every top-level
// object must live in members[ShardOf(key, len(members))]. Member order
// is shard order.
func NewPartitionedSource(name, keyLabel string, members ...Source) (*PartitionedSource, error) {
	return wrapper.NewPartitioned(name, keyLabel, members...)
}

// ShardOf maps a partition-key value to a shard index in [0, shards) —
// the stable hash both data placement and query routing use.
func ShardOf(key string, shards int) int { return wrapper.ShardIndex(key, shards) }

// NewReplicatedSource builds the logical source name over
// answer-equivalent replicas. Member order is the failover order before
// any call has been observed; after that, each exchange routes to the
// best-scored member.
func NewReplicatedSource(name string, members ...Source) (*ReplicatedSource, error) {
	return wrapper.NewReplicated(name, members...)
}

// NewXMLSource builds an XML-tier source over already-decoded objects.
func NewXMLSource(name string, tops []*Object) (*XMLSource, error) {
	return xmlsource.New(name, tops)
}

// NewXMLSourceFromReader decodes one XML document from r under mapping m
// into a new source.
func NewXMLSourceFromReader(name string, r io.Reader, m XMLMapping) (*XMLSource, error) {
	return xmlsource.FromReader(name, r, m)
}

// NewXMLSourceFromFile loads an XML file into a new source.
func NewXMLSourceFromFile(name, path string, m XMLMapping) (*XMLSource, error) {
	return xmlsource.FromFile(name, path, m)
}

// DecodeXML maps an XML document to OEM objects under mapping m.
func DecodeXML(r io.Reader, m XMLMapping) ([]*Object, error) {
	return xmlsource.Decode(r, m)
}

// EncodeXML renders OEM objects as an XML document the decoder maps back
// to structurally equal objects.
func EncodeXML(w io.Writer, objs []*Object, m XMLMapping) error {
	return xmlsource.Encode(w, objs, m)
}

// NewHTTPSource builds a source over the JSON-over-HTTP service at
// baseURL.
func NewHTTPSource(name, baseURL string, opts ...HTTPSourceOption) (*HTTPSource, error) {
	return jsonhttp.New(name, baseURL, opts...)
}

// NewHTTPHandler serves tops in the jsonhttp wire format.
func NewHTTPHandler(tops []*Object) *HTTPHandler {
	return jsonhttp.NewHandler(tops)
}

// WithHTTPClient substitutes the HTTP client an HTTPSource issues
// requests with.
func WithHTTPClient(c *http.Client) HTTPSourceOption {
	return jsonhttp.WithHTTPClient(c)
}

// WithHTTPRetries bounds an HTTPSource's retries of transient failures
// and sets the initial backoff.
func WithHTTPRetries(max int, base time.Duration) HTTPSourceOption {
	return jsonhttp.WithRetries(max, base)
}

// NewStreamSource returns an empty append-only event log.
func NewStreamSource(name string, opts StreamOptions) *StreamSource {
	return streamsource.New(name, opts)
}

// FullCapabilities is the capability set of a source supporting the whole
// query language.
func FullCapabilities() Capabilities { return wrapper.FullCapabilities() }
