(* Host-speed calibration.

   The benchmark runs on shared machines whose speed for this code
   swings by up to 2x over seconds to minutes, as neighbours load the
   memory system; a plain spin loop barely notices.  A fixed probe that
   allocates like the simulator does (strings promoted into a hashtable,
   plus a 512 KB copy) slows down along with the workloads, so the
   benchmark scales every timed interval by the probe's current cost
   and reports times in reference-host units:

     reported time = measured time x (ref_ns / probe_ns) ^ exponent

   The probe over-reacts: regressing log slice throughput on log probe
   cost gave slopes of 0.5 to 0.8 across the workloads, hence the
   exponent.  The probe is the benchmark's own code and does not depend
   on the repository's libraries, so a change to them moves the
   reported numbers as it moves the measured ones.  Raw timings are
   printed beside the reported ones. *)

(* The probe's cost on the reference host when it was quiet (2 vCPUs,
   see README.md).  Changing it rescales every reported time. *)
let ref_ns = 1_300_000.

let table = Hashtbl.create 65536
let src = Bytes.make (1 lsl 19) 'p'
let dst = Bytes.create (1 lsl 19)

let kernel () =
  let t0 = Clock.now_ns () in
  for k = 1 to 8 do
    let keys = List.init 1000 (fun i -> (i, k)) in
    List.iter (fun (i, k) -> Hashtbl.replace table (((i * 7919) + (k * 104729)) land 65535) (string_of_int i)) keys;
    Bytes.blit src 0 dst 0 (Bytes.length src)
  done;
  float_of_int (Clock.now_ns () - t0)

(* The probe's current cost: the fastest of three runs, so an interrupt
   during one run does not count. *)
let probe () = Float.min (kernel ()) (Float.min (kernel ()) (kernel ()))

let exponent = 0.7

(* Multiply a measured time by this to get reference-host time. *)
let factor probe_ns = Float.pow (ref_ns /. probe_ns) exponent
