"""Wire-level constants of the UCP model."""

#: Bytes of protocol header prepended to every wire message (UCP + UCT).
WIRE_HEADER_BYTES = 64

#: Size of rendezvous control messages (RTS / RTR / FIN) on the wire.
CTRL_MSG_BYTES = 64

#: Full-precision tag mask (exact match).
TAG_MASK_FULL = (1 << 64) - 1

#: Loopback delivery delay for sends where source and destination are the
#: same worker (no NIC involvement, just a queue hop).
LOOPBACK_LATENCY = 0.08e-6

#: What the fault injector decides for one frame attempt
#: (``FaultInjector.frame_fault`` returns ``(verdict, stall_seconds)`` or
#: ``None``); the transport acts on them without importing the injector.
DROP = "drop"
CORRUPT = "corrupt"
STALL = "stall"
