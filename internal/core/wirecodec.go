package core

import (
	"jsymphony/internal/params"
	"jsymphony/internal/replica"
	"jsymphony/internal/rmi"
)

// Struct tags of the OAS protocol (DESIGN.md §15).  A body is
// rmi.FormatWire, the tag, then the struct's derived layout: its
// exported fields in declaration order.  A layout change must retire
// the struct's tag and allocate a new one.
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

	tagReplicaSet byte = 0x40 // replica.Set, which imports no codec
)

// wireTypes is the registration table: every protocol struct core
// sends, under its struct tag.  Ref and replica.Set also travel inside
// other bodies, where they are their bare fields.
var wireTypes = []struct {
	tag byte
	v   any
}{
	{tagRef, Ref{}},
	{tagCreateReq, createReq{}},
	{tagInvokeReq, invokeReq{}},
	{tagInvokeResp, invokeResp{}},
	{tagMigrateOutReq, migrateOutReq{}},
	{tagMigrateInReq, migrateInReq{}},
	{tagFreeReq, freeReq{}},
	{tagStoreReq, storeReq{}},
	{tagLoadReq, loadReq{}},
	{tagLocateReq, locateReq{}},
	{tagLocateResp, locateResp{}},
	{tagCodebaseReq, codebaseReq{}},
	{tagReplicaConfigure, replicaConfigureReq{}},
	{tagReplicaAuthRenew, replicaAuthRenewReq{}},
	{tagReplicaUpdate, replicaUpdateReq{}},
	{tagReplicaDrop, replicaDropReq{}},
	{tagReplicaSnapReq, replicaSnapshotReq{}},
	{tagReplicaSnapResp, replicaSnapshotResp{}},
	{tagReplicaRenewReq, replicaRenewReq{}},
	{tagReplicaRenewResp, replicaRenewResp{}},
	{tagDurableReq, durableReq{}},
	{tagReplicaSet, replica.Set{}},
}

// Handles are first-order values (paper §5.2): a Ref rides method
// argument vectors under its registered name (RegisterWire names it).
// A []Ref and a params.Snapshot may cross as arguments too.
func init() {
	for _, w := range wireTypes {
		rmi.RegisterWire(w.tag, w.v)
	}
	for _, v := range []any{[]Ref(nil), params.Snapshot(nil)} {
		rmi.RegisterType(v)
	}
}
