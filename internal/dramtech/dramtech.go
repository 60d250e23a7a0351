// Package dramtech models the memory devices behind the bank
// controllers. The device (Device) is a cycle-level model of one
// external bank: the Micron 256 Mbit parts of the PVA prototype paired
// into a 32-bit-wide device with four internal banks, 2 KB rows and
// two-cycle RAS, CAS and precharge latencies (Section 6.1). Its Model
// tracks row state per unit over a choice of back end: plain SDRAM,
// SALP subarrays, PCM partitions, or the rowless SRAM of the PVA-SRAM
// comparison system. The device is deliberately strict: Issue returns
// a *ViolationError for any command that breaks the back end's state
// machine or timing. The bank controller's restimers exist precisely
// to make such violations impossible, and the tests inject illegal
// sequences to prove the checker catches them.
package dramtech
