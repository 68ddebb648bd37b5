(** Binary on-disk format for packet traces, so generated workloads can
    be saved once and replayed across runs/tools (a light-weight stand-in
    for the pcap captures the paper replays).

    Layout (all integers little-endian):
    {v
    "SNICTRC1"                      8-byte magic
    u32 flow count
      per flow: u32 src, u32 dst, u8 proto, u16 sport, u16 dport
    u32 event count
      per event: u32 flow index, u32 wire bytes, u64 time_us
    v} *)

val save : string -> Tracegen.t -> unit

(** [load path] validates the magic, bounds and flow indices. *)
val load : string -> (Tracegen.t, string) result
