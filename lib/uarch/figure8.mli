(** DPI-accelerator throughput vs thread-cluster size and frame size
    (Figure 8 / Appendix C).

    Sixteen programmable cores generate frames as fast as they can and
    feed a virtual DPI accelerator with 16/32/48 hardware threads; the
    measured quantity is packets per second. Small frames are
    producer-bound (flat in cluster size); jumbo frames are
    accelerator-bound and scale with threads. *)

type point = { threads : int; frame_bytes : int; mpps : float }

(** [simulate ?kind ~threads ~frame_bytes ()] returns Mpps at the NIC's
    1.2 GHz clock ([kind] defaults to the paper's DPI engine; ZIP and
    RAID reuse the same harness as an extension). *)
val simulate :
  ?kind:Nicsim.Accel.kind ->
  ?packets:int ->
  threads:int ->
  frame_bytes:int ->
  unit ->
  float

(** The full figure: cluster sizes {16,32,48} x frame sizes
    {64, 512, 1500, 9000}. *)
val figure8 : ?packets:int -> unit -> point list
