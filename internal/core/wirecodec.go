package core

import (
	"jsymphony/internal/params"
	"jsymphony/internal/replica"
	"jsymphony/internal/rmi"
	"jsymphony/internal/rmi/wire"
)

// Hand-written wire codecs for the OAS protocol structs (DESIGN.md
// §15).  Every struct encoding starts with its registry tag byte;
// fields follow in declaration order.  These run on the RMI hot path —
// no reflection, no maps, no intermediate buffers.  A layout change
// must retire the struct's tag and allocate a new one.
const (
	tagCreateReq        byte = 0x10
	tagInvokeReq        byte = 0x11
	tagInvokeResp       byte = 0x12
	tagMigrateOutReq    byte = 0x13
	tagMigrateInReq     byte = 0x14
	tagFreeReq          byte = 0x15
	tagStoreReq         byte = 0x16
	tagLoadReq          byte = 0x17
	tagLocateReq        byte = 0x18
	tagLocateResp       byte = 0x19
	tagCodebaseReq      byte = 0x1A
	tagRef              byte = 0x1B
	tagReplicaConfigure byte = 0x20
	tagReplicaAuthRenew byte = 0x21
	tagReplicaUpdate    byte = 0x22
	tagReplicaDrop      byte = 0x23
	tagReplicaSnapReq   byte = 0x24
	tagReplicaSnapResp  byte = 0x25
	tagReplicaRenewReq  byte = 0x26
	tagReplicaRenewResp byte = 0x27
	tagDurableReq       byte = 0x30
	// 0x31 is retired, never to be reused: it tagged the WAL's private
	// install request; WAL installs travel as migrateInReq.
)

// Handles are first-order values (paper §5.2): a Ref rides method
// argument vectors under its registered name, through its hand-written
// schema.  A []Ref and a params.Snapshot may cross as arguments too.
func init() {
	for _, v := range []any{Ref{}, []Ref(nil), params.Snapshot(nil)} {
		rmi.RegisterType(v)
	}
}

// ---------------------------------------------------------------------
// Ref

// AppendWire appends the handle's fields without framing, for
// embedding inside enclosing structs.
func (r Ref) AppendWire(buf []byte) []byte {
	buf = wire.AppendString(buf, r.App)
	buf = wire.AppendUvarint(buf, r.ID)
	buf = wire.AppendString(buf, r.Class)
	return wire.AppendString(buf, r.Origin)
}

// DecodeWire reads the fields appended by AppendWire.
func (r *Ref) DecodeWire(d *wire.Dec) {
	r.App = d.String()
	r.ID = d.Uvarint()
	r.Class = d.String()
	r.Origin = d.String()
}

// AppendTo implements wire.Encoder.
func (r Ref) AppendTo(buf []byte) []byte { return r.AppendWire(append(buf, tagRef)) }

// DecodeFrom implements wire.Decoder.
func (r *Ref) DecodeFrom(b []byte) error {
	d := wire.NewDec(b)
	d.Tag(tagRef)
	r.DecodeWire(&d)
	return d.Finish()
}

// ---------------------------------------------------------------------
// Object lifecycle

func (q createReq) AppendTo(buf []byte) []byte {
	return q.Ref.AppendWire(append(buf, tagCreateReq))
}

func (q *createReq) DecodeFrom(b []byte) error {
	d := wire.NewDec(b)
	d.Tag(tagCreateReq)
	q.Ref.DecodeWire(&d)
	return d.Finish()
}

func (q invokeReq) AppendTo(buf []byte) []byte {
	buf = append(buf, tagInvokeReq)
	buf = wire.AppendString(buf, q.App)
	buf = wire.AppendUvarint(buf, q.ID)
	buf = wire.AppendString(buf, q.Method)
	buf = rmi.AppendArgs(buf, q.Args)
	buf = wire.AppendUvarint(buf, q.Span)
	buf = wire.AppendBool(buf, q.Read)
	return wire.AppendString(buf, q.Class)
}

func (q *invokeReq) DecodeFrom(b []byte) error {
	d := wire.NewDec(b)
	d.Tag(tagInvokeReq)
	q.App = d.String()
	q.ID = d.Uvarint()
	q.Method = d.String()
	q.Args = rmi.DecodeArgs(&d)
	q.Span = d.Uvarint()
	q.Read = d.Bool()
	q.Class = d.String()
	return d.Finish()
}

func (q invokeResp) AppendTo(buf []byte) []byte {
	buf = append(buf, tagInvokeResp)
	buf = rmi.AppendValue(buf, q.Result)
	buf = wire.AppendDuration(buf, q.Service)
	buf = wire.AppendDuration(buf, q.Staleness)
	buf = wire.AppendDuration(buf, q.LeaseWait)
	buf = wire.AppendDuration(buf, q.Durability)
	buf = wire.AppendBool(buf, q.Replica)
	return q.RSet.AppendWire(buf)
}

func (q *invokeResp) DecodeFrom(b []byte) error {
	d := wire.NewDec(b)
	d.Tag(tagInvokeResp)
	q.Result = rmi.DecodeValue(&d)
	q.Service = d.Duration()
	q.Staleness = d.Duration()
	q.LeaseWait = d.Duration()
	q.Durability = d.Duration()
	q.Replica = d.Bool()
	q.RSet.DecodeWire(&d)
	return d.Finish()
}

func (q migrateOutReq) AppendTo(buf []byte) []byte {
	buf = append(buf, tagMigrateOutReq)
	buf = wire.AppendString(buf, q.App)
	buf = wire.AppendUvarint(buf, q.ID)
	return wire.AppendString(buf, q.Dest)
}

func (q *migrateOutReq) DecodeFrom(b []byte) error {
	d := wire.NewDec(b)
	d.Tag(tagMigrateOutReq)
	q.App = d.String()
	q.ID = d.Uvarint()
	q.Dest = d.String()
	return d.Finish()
}

func (q migrateInReq) AppendTo(buf []byte) []byte {
	buf = q.Ref.AppendWire(append(buf, tagMigrateInReq))
	buf = wire.AppendBytes(buf, q.State)
	buf = wire.AppendBool(buf, q.Durable)
	buf = wire.AppendStrings(buf, q.DurReads)
	return wire.AppendUvarint(buf, q.DurVer)
}

func (q *migrateInReq) DecodeFrom(b []byte) error {
	d := wire.NewDec(b)
	d.Tag(tagMigrateInReq)
	q.Ref.DecodeWire(&d)
	q.State = d.Bytes()
	q.Durable = d.Bool()
	q.DurReads = d.Strings()
	q.DurVer = d.Uvarint()
	return d.Finish()
}

func (q freeReq) AppendTo(buf []byte) []byte {
	buf = append(buf, tagFreeReq)
	buf = wire.AppendString(buf, q.App)
	return wire.AppendUvarint(buf, q.ID)
}

func (q *freeReq) DecodeFrom(b []byte) error {
	d := wire.NewDec(b)
	d.Tag(tagFreeReq)
	q.App = d.String()
	q.ID = d.Uvarint()
	return d.Finish()
}

func (q storeReq) AppendTo(buf []byte) []byte {
	buf = append(buf, tagStoreReq)
	buf = wire.AppendString(buf, q.App)
	buf = wire.AppendUvarint(buf, q.ID)
	return wire.AppendString(buf, q.Key)
}

func (q *storeReq) DecodeFrom(b []byte) error {
	d := wire.NewDec(b)
	d.Tag(tagStoreReq)
	q.App = d.String()
	q.ID = d.Uvarint()
	q.Key = d.String()
	return d.Finish()
}

func (q loadReq) AppendTo(buf []byte) []byte {
	buf = q.Ref.AppendWire(append(buf, tagLoadReq))
	return wire.AppendString(buf, q.Key)
}

func (q *loadReq) DecodeFrom(b []byte) error {
	d := wire.NewDec(b)
	d.Tag(tagLoadReq)
	q.Ref.DecodeWire(&d)
	q.Key = d.String()
	return d.Finish()
}

func (q locateReq) AppendTo(buf []byte) []byte {
	return wire.AppendUvarint(append(buf, tagLocateReq), q.ID)
}

func (q *locateReq) DecodeFrom(b []byte) error {
	d := wire.NewDec(b)
	d.Tag(tagLocateReq)
	q.ID = d.Uvarint()
	return d.Finish()
}

func (q locateResp) AppendTo(buf []byte) []byte {
	buf = append(buf, tagLocateResp)
	buf = wire.AppendString(buf, q.Node)
	buf = wire.AppendBool(buf, q.OK)
	return q.RSet.AppendWire(buf)
}

func (q *locateResp) DecodeFrom(b []byte) error {
	d := wire.NewDec(b)
	d.Tag(tagLocateResp)
	q.Node = d.String()
	q.OK = d.Bool()
	q.RSet.DecodeWire(&d)
	return d.Finish()
}

func (q codebaseReq) AppendTo(buf []byte) []byte {
	return wire.AppendStrings(append(buf, tagCodebaseReq), q.Classes)
}

func (q *codebaseReq) DecodeFrom(b []byte) error {
	d := wire.NewDec(b)
	d.Tag(tagCodebaseReq)
	q.Classes = d.Strings()
	return d.Finish()
}

// ---------------------------------------------------------------------
// Replication protocol

func (q replicaConfigureReq) AppendTo(buf []byte) []byte {
	buf = append(buf, tagReplicaConfigure)
	buf = wire.AppendString(buf, q.App)
	buf = wire.AppendUvarint(buf, q.ID)
	buf = wire.AppendStrings(buf, q.Peers)
	buf = wire.AppendString(buf, string(q.Mode))
	buf = wire.AppendDuration(buf, q.Lease)
	buf = wire.AppendStrings(buf, q.Reads)
	buf = wire.AppendDuration(buf, q.AuthUntil)
	return wire.AppendVarint(buf, int64(q.MinSync))
}

func (q *replicaConfigureReq) DecodeFrom(b []byte) error {
	d := wire.NewDec(b)
	d.Tag(tagReplicaConfigure)
	q.App = d.String()
	q.ID = d.Uvarint()
	q.Peers = d.Strings()
	q.Mode = replica.Mode(d.String())
	q.Lease = d.Duration()
	q.Reads = d.Strings()
	q.AuthUntil = d.Duration()
	q.MinSync = int(d.Varint())
	return d.Finish()
}

func (q replicaAuthRenewReq) AppendTo(buf []byte) []byte {
	buf = append(buf, tagReplicaAuthRenew)
	buf = wire.AppendString(buf, q.App)
	buf = wire.AppendUvarint(buf, q.ID)
	return wire.AppendDuration(buf, q.Until)
}

func (q *replicaAuthRenewReq) DecodeFrom(b []byte) error {
	d := wire.NewDec(b)
	d.Tag(tagReplicaAuthRenew)
	q.App = d.String()
	q.ID = d.Uvarint()
	q.Until = d.Duration()
	return d.Finish()
}

func (q replicaUpdateReq) AppendTo(buf []byte) []byte {
	buf = q.Ref.AppendWire(append(buf, tagReplicaUpdate))
	buf = wire.AppendBytes(buf, q.State)
	buf = wire.AppendUvarint(buf, q.Version)
	buf = wire.AppendDuration(buf, q.AsOf)
	buf = wire.AppendDuration(buf, q.Lease)
	buf = wire.AppendString(buf, string(q.Mode))
	buf = wire.AppendString(buf, q.Primary)
	buf = wire.AppendBool(buf, q.Force)
	buf = wire.AppendBool(buf, q.Durable)
	return wire.AppendUvarint(buf, q.DurVer)
}

func (q *replicaUpdateReq) DecodeFrom(b []byte) error {
	d := wire.NewDec(b)
	d.Tag(tagReplicaUpdate)
	q.Ref.DecodeWire(&d)
	q.State = d.Bytes()
	q.Version = d.Uvarint()
	q.AsOf = d.Duration()
	q.Lease = d.Duration()
	q.Mode = replica.Mode(d.String())
	q.Primary = d.String()
	q.Force = d.Bool()
	q.Durable = d.Bool()
	q.DurVer = d.Uvarint()
	return d.Finish()
}

func (q replicaDropReq) AppendTo(buf []byte) []byte {
	buf = append(buf, tagReplicaDrop)
	buf = wire.AppendString(buf, q.App)
	return wire.AppendUvarint(buf, q.ID)
}

func (q *replicaDropReq) DecodeFrom(b []byte) error {
	d := wire.NewDec(b)
	d.Tag(tagReplicaDrop)
	q.App = d.String()
	q.ID = d.Uvarint()
	return d.Finish()
}

func (q replicaSnapshotReq) AppendTo(buf []byte) []byte {
	buf = append(buf, tagReplicaSnapReq)
	buf = wire.AppendString(buf, q.App)
	return wire.AppendUvarint(buf, q.ID)
}

func (q *replicaSnapshotReq) DecodeFrom(b []byte) error {
	d := wire.NewDec(b)
	d.Tag(tagReplicaSnapReq)
	q.App = d.String()
	q.ID = d.Uvarint()
	return d.Finish()
}

func (q replicaSnapshotResp) AppendTo(buf []byte) []byte {
	buf = append(buf, tagReplicaSnapResp)
	buf = wire.AppendBytes(buf, q.State)
	return wire.AppendUvarint(buf, q.Version)
}

func (q *replicaSnapshotResp) DecodeFrom(b []byte) error {
	d := wire.NewDec(b)
	d.Tag(tagReplicaSnapResp)
	q.State = d.Bytes()
	q.Version = d.Uvarint()
	return d.Finish()
}

func (q replicaRenewReq) AppendTo(buf []byte) []byte {
	buf = append(buf, tagReplicaRenewReq)
	buf = wire.AppendString(buf, q.App)
	return wire.AppendUvarint(buf, q.ID)
}

func (q *replicaRenewReq) DecodeFrom(b []byte) error {
	d := wire.NewDec(b)
	d.Tag(tagReplicaRenewReq)
	q.App = d.String()
	q.ID = d.Uvarint()
	return d.Finish()
}

func (q replicaRenewResp) AppendTo(buf []byte) []byte {
	buf = append(buf, tagReplicaRenewResp)
	buf = wire.AppendBytes(buf, q.State)
	buf = wire.AppendUvarint(buf, q.Version)
	buf = wire.AppendDuration(buf, q.AsOf)
	return wire.AppendDuration(buf, q.Lease)
}

func (q *replicaRenewResp) DecodeFrom(b []byte) error {
	d := wire.NewDec(b)
	d.Tag(tagReplicaRenewResp)
	q.State = d.Bytes()
	q.Version = d.Uvarint()
	q.AsOf = d.Duration()
	q.Lease = d.Duration()
	return d.Finish()
}

// ---------------------------------------------------------------------
// Durability protocol

func (q durableReq) AppendTo(buf []byte) []byte {
	buf = append(buf, tagDurableReq)
	buf = wire.AppendString(buf, q.App)
	buf = wire.AppendUvarint(buf, q.ID)
	return wire.AppendStrings(buf, q.Reads)
}

func (q *durableReq) DecodeFrom(b []byte) error {
	d := wire.NewDec(b)
	d.Tag(tagDurableReq)
	q.App = d.String()
	q.ID = d.Uvarint()
	q.Reads = d.Strings()
	return d.Finish()
}
