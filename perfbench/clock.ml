(* The benchmark's one clock: CLOCK_MONOTONIC through bechamel's
   [noalloc] stub, in integer nanoseconds.  Nothing here reads
   [Sys.time] (CPU time) or [Unix.gettimeofday] (not monotonic). *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9
