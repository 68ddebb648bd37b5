(* The repository benchmark's main program.

   [snicbench --workload W --seed N --seconds S --trace 0|1] runs one
   seeded workload as a closed loop with one client, in one process and
   one OCaml domain.

   Untraced (--trace 0): set-up runs [--setups] times (setup_s is the
   median) and the last world is measured for S seconds.  The first
   [window] units of the run form the identity window: the exact output
   checks, the minor words per unit and the heap size are taken there,
   so they repeat exactly for a seed.  Timings are scaled to
   reference-host time slice by slice (Host); throughput is the median
   over quarter-second slices of timed calls, or units over time for a
   workload measured over a fixed amount of work; latency is per timed
   call.

   Traced (--trace 1): two identical worlds from the seed are stepped
   alternately for S seconds, one untraced and one with spans on; the
   per-layer metrics come from the spans, and the two worlds must give
   the same identity values.

   The last line of standard output is "RESULT <json>", which
   perfbench/run.py checks and turns into the benchmark's result. *)

let workloads = [ W_attest.workload; W_synflood.workload; W_fabric.workload; W_oracle.workload ]

(* {2 Statistics} *)

(* Nearest-rank percentile of a sorted array. *)
let percentile sorted p =
  let n = Array.length sorted in
  let k = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (k - 1)))

(* Samples strictly beyond the nearest-rank percentile [p]. *)
let beyond sorted p = Array.length sorted - int_of_float (Float.ceil (p /. 100. *. float_of_int (Array.length sorted)))

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* {2 One timed phase} *)

type phase = {
  units : int; (* units attempted over the whole run *)
  failed : int;
  m_units : int; (* units in the measured calls *)
  raw_ns : float array; (* latency of each measured call, as measured *)
  ref_ns : float array; (* the same in reference-host time (Host) *)
  raw_rates : float list; (* units/s of each measured slice, as measured *)
  ref_rates : float list; (* the same in reference-host time *)
  probe_ns : float; (* median host probe over the measured calls *)
  window_words : float; (* minor words allocated by the calls of the identity window *)
  window_units : int;
  heap_mb : float; (* top of the major heap when the identity window closed *)
  identity : (string * string) list;
  errors : string list;
  layer_counts : (string * float) list;
}

(* A world being measured: its instance and what the timed calls so far
   have done.  [traced] turns span recording on around its calls.  The
   measured calls are all of them, or the first [measure] units' worth
   when the workload fixes one. *)
type runner = {
  inst : Common.instance;
  traced : bool;
  window : int;
  measure : int option;
  mutable lat : float array;
  mutable slice_of : int array; (* the slice each call fell in *)
  mutable calls : int;
  mutable r_units : int;
  mutable r_failed : int;
  mutable busy : int;
  mutable words : float;
  mutable w_units : int;
  mutable heap_mb : float;
  mutable id : (string * string) list option;
  mutable probes : float list; (* newest first; the head opened the current slice *)
  mutable factors : float list; (* per closed slice, newest first *)
  mutable slices : int; (* closed slices *)
  mutable slice_busy : int; (* timed ns and units at the start of the open slice *)
  mutable slice_units : int;
  mutable raw_rates : float list;
  mutable ref_rates : float list;
  mutable measured : (int * int) option; (* calls and units once measuring stopped *)
}

let slice_ns = 250_000_000

let top_heap_mb () = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

let runner ?(traced = false) ?measure inst ~window =
  {
    inst;
    traced;
    window;
    measure;
    lat = Array.make 4096 0.;
    slice_of = Array.make 4096 0;
    calls = 0;
    r_units = 0;
    r_failed = 0;
    busy = 0;
    words = 0.;
    w_units = 0;
    heap_mb = 0.;
    id = None;
    probes = [ Host.probe () ];
    factors = [];
    slices = 0;
    slice_busy = 0;
    slice_units = 0;
    raw_rates = [];
    ref_rates = [];
    measured = None;
  }

(* Close the open slice: probe the host, take the slice's factor from the
   mean of the two probes that bracket it, and record its rate (unless it
   is a final slice shorter than half the usual length). *)
let close_slice r =
  let before = List.hd r.probes and after = Host.probe () in
  let f = Host.factor ((before +. after) /. 2.) in
  r.probes <- after :: r.probes;
  r.factors <- f :: r.factors;
  r.slices <- r.slices + 1;
  let ns = r.busy - r.slice_busy in
  if 2 * ns >= slice_ns then begin
    let rate = float_of_int (r.r_units - r.slice_units) /. (float_of_int ns /. 1e9) in
    r.raw_rates <- rate :: r.raw_rates;
    r.ref_rates <- (rate /. f) :: r.ref_rates
  end;
  r.slice_busy <- r.busy;
  r.slice_units <- r.r_units

let stop_measuring r =
  if r.measured = None then begin
    close_slice r;
    r.measured <- Some (r.calls, r.r_units)
  end

(* One closed-loop step: client-side preparation, then the timed call.
   Minor words are read around the call alone, so the count is exact. *)
let step r =
  r.inst.Common.prepare ();
  Spans.enabled := r.traced;
  Spans.current_unit := r.r_units;
  let span = Spans.enter Spans.unit_ in
  let w0 = Gc.minor_words () in
  let t0 = Clock.now_ns () in
  let u, f = r.inst.Common.call () in
  let t1 = Clock.now_ns () in
  let w1 = Gc.minor_words () in
  Spans.leave span;
  Spans.enabled := false;
  if r.calls = Array.length r.lat then begin
    r.lat <- Array.append r.lat (Array.make r.calls 0.);
    r.slice_of <- Array.append r.slice_of (Array.make r.calls 0)
  end;
  r.lat.(r.calls) <- float_of_int (t1 - t0);
  r.slice_of.(r.calls) <- r.slices;
  r.calls <- r.calls + 1;
  r.busy <- r.busy + (t1 - t0);
  r.r_units <- r.r_units + u;
  r.r_failed <- r.r_failed + f;
  if r.id = None then begin
    r.words <- r.words +. (w1 -. w0);
    r.w_units <- r.w_units + u;
    if r.r_units >= r.window then begin
      r.heap_mb <- top_heap_mb ();
      r.id <- Some (r.inst.Common.identity ())
    end
  end;
  if r.measured = None then begin
    match r.measure with
    | Some m when r.r_units >= m -> stop_measuring r
    | _ -> if r.busy - r.slice_busy >= slice_ns then close_slice r
  end

(* Step every runner in turn until each has finished its identity window
   and either [seconds] have passed and it has run its measured units, or
   it has run [max_units]. *)
let run_loop runners ~seconds ~max_units =
  let t_start = Clock.now_ns () in
  let go r =
    r.id = None
    || (r.measure <> None && r.measured = None && max_units = None)
    || match max_units with Some n -> r.r_units < n | None -> Clock.seconds_since t_start < seconds
  in
  while List.exists go runners do
    List.iter (fun r -> if go r then step r) runners
  done;
  List.iter stop_measuring runners

let phase r =
  let m_calls, m_units = Option.get r.measured in
  let factors = Array.of_list (List.rev r.factors) in
  let raw_ns = Array.sub r.lat 0 m_calls in
  {
    units = r.r_units;
    failed = r.r_failed;
    m_units;
    raw_ns;
    ref_ns = Array.mapi (fun i t -> t *. factors.(r.slice_of.(i))) raw_ns;
    raw_rates = r.raw_rates;
    ref_rates = r.ref_rates;
    probe_ns = median r.probes;
    window_words = r.words;
    window_units = r.w_units;
    heap_mb = r.heap_mb;
    identity = (match r.id with Some i -> i | None -> r.inst.Common.identity ());
    errors = r.inst.Common.finish ();
    layer_counts = r.inst.Common.layer_counts ();
  }

(* Over a fixed amount of work (a workload with [measure]), units over
   the summed latencies.  Otherwise the median slice rate, which a slow
   spell covering less than half the run does not move; too few slices
   fall back to units over the summed latencies. *)
let throughput ?(raw = false) ~fixed (p : phase) =
  let rates = if raw then p.raw_rates else p.ref_rates in
  if (not fixed) && List.length rates >= 3 then median rates
  else float_of_int p.m_units /. (Array.fold_left ( +. ) 0. (if raw then p.raw_ns else p.ref_ns) /. 1e9)

let sorted_latencies ?(raw = false) (p : phase) =
  let a = Array.copy (if raw then p.raw_ns else p.ref_ns) in
  Array.sort compare a;
  a

(* {2 The crypto layer on the workloads' operands}

   Run only in the traced world: 512-bit RSA keys (the size of every
   NIC's EK and AK), the attestation's 768-bit DH group, cookie-sized
   HMAC input and 1500-B frames. *)
let crypto_probe ~seed =
  let rs = Common.random_state seed 0xC0DE in
  let timed name f =
    let s = Spans.enter name in
    let r = f () in
    Spans.leave s;
    r
  in
  let ek = timed Spans.rsa_generate (fun () -> Crypto.Rsa.generate rs ~bits:512) in
  let ak = timed Spans.rsa_generate (fun () -> Crypto.Rsa.generate rs ~bits:512) in
  let binding = Snic.Identity.ak_binding ak.Crypto.Rsa.pub in
  let quote = String.init 200 (fun _ -> Char.chr (Random.State.int rs 256)) in
  let endorsement = timed Spans.rsa_sign (fun () -> Crypto.Rsa.sign ek binding) in
  let ok = ref true in
  for _ = 1 to 8 do
    ignore (timed Spans.rsa_sign (fun () -> Crypto.Rsa.sign ak quote));
    for _ = 1 to 3 do
      ok := !ok && timed Spans.rsa_verify (fun () -> Crypto.Rsa.verify ek.Crypto.Rsa.pub ~msg:binding ~signature:endorsement)
    done;
    let x, gx = timed Spans.dh_keypair (fun () -> Crypto.Dh.keypair rs Crypto.Dh.sim_768) in
    let y, gy = timed Spans.dh_keypair (fun () -> Crypto.Dh.keypair rs Crypto.Dh.sim_768) in
    let kx = timed Spans.dh_shared (fun () -> Crypto.Dh.shared ~secret:x ~peer:gy) in
    let ky = timed Spans.dh_shared (fun () -> Crypto.Dh.shared ~secret:y ~peer:gx) in
    ok := !ok && Bigint.equal kx ky;
    let base = Bigint.rem (Bigint.of_bytes_be (Crypto.Sha256.digest quote)) ak.Crypto.Rsa.pub.Crypto.Rsa.n in
    ignore
      (timed Spans.modpow (fun () ->
           Bigint.modpow ~base ~exponent:ak.Crypto.Rsa.d ~modulus:ak.Crypto.Rsa.pub.Crypto.Rsa.n))
  done;
  let key = Crypto.Sha256.digest quote in
  let flow =
    Net.Five_tuple.make ~src_ip:(Net.Ipv4_addr.of_octets 10 0 0 1) ~dst_ip:Trace.Attackgen.victim_ip ~proto:6
      ~src_port:40000 ~dst_port:Trace.Attackgen.victim_port
  in
  let cookie_input = Net.Five_tuple.to_string flow ^ "|0" in
  for _ = 1 to 2000 do
    ignore (timed Spans.hmac_cookie (fun () -> Crypto.Hmac.mac ~key cookie_input))
  done;
  let frame = String.init 1500 (fun i -> Char.chr (97 + (i mod 26))) in
  for _ = 1 to 1000 do
    ignore (timed Spans.sha256_frame (fun () -> Crypto.Sha256.digest frame))
  done;
  if not !ok then failwith "crypto probe: a signature or DH agreement did not verify"

(* {2 Output} *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_number f = if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f else Printf.sprintf "%.17g" f
let json_obj fields = "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"
let json_list xs = "[" ^ String.concat ", " xs ^ "]"
let metric (name, value, unit) = (name, json_obj [ ("value", json_number value); ("unit", json_string unit) ])
let identity_json id = json_obj (List.map (fun (k, v) -> (k, json_string v)) id)

(* {2 Per-layer metrics}

   Every span below gets [.calls], [.self_us_per_call] and
   [.words_per_call]; a span the workload never enters reports zero
   calls. *)
let per_layer_spans =
  [
    "core.session.hello"; "core.session.quote"; "core.session.check"; "core.session.finish"; "core.session.confirm";
    "crypto.rsa.sign"; "crypto.rsa.verify"; "crypto.dh.keypair"; "crypto.dh.shared"; "bigint.modpow";
    "core.api.boot"; "crypto.rsa.generate"; "core.api.nf_create"; "core.api.nf_destroy"; "nf.synp.process";
    "crypto.hmac.cookie"; "core.api.inject_batch"; "core.vnic.process"; "core.api.transmitted";
    "fabric.channel.send"; "fabric.channel.recv"; "nf.fw.process"; "nf.dpi.process"; "crypto.sha256.frame";
    "oracle.step.launch"; "oracle.step.teardown"; "oracle.step.attest"; "oracle.step.read"; "oracle.step.write";
    "oracle.step.dma"; "oracle.step.stream"; "oracle.step.mmio"; "oracle.step.inject"; "oracle.step.vfattach";
    "oracle.step.vfdetach"; "oracle.step.vfdoorbell"; "oracle.step.vfqread"; "oracle.step.qos";
  ]

let per_layer_counts = [ "nf.synp.admit_ratio"; "nicsim.pktio.rejected"; "fabric.channel.rejects"; "oracle.executed_ratio" ]

(* Which end-to-end metric each span should move, and on which
   workload; written down before any optimisation (README.md). *)
let moves name =
  let has prefix = String.starts_with ~prefix name in
  if has "core.session" || List.mem name [ "crypto.rsa.sign"; "crypto.rsa.verify"; "crypto.dh.keypair"; "crypto.dh.shared"; "bigint.modpow" ]
  then "latency_p50_us, throughput_per_s on attest-churn (and oracle-snic via oracle.step.attest)"
  else if List.mem name [ "core.api.boot"; "crypto.rsa.generate"; "bench.setup"; "fabric.endpoint.establish" ] then
    "setup_s on all"
  else if List.mem name [ "core.api.nf_create"; "core.api.nf_destroy" ] then "throughput_per_s on oracle-snic"
  else if List.mem name [ "nf.synp.process"; "crypto.hmac.cookie" ] then "throughput_per_s, alloc_words_per_unit on syn-flood"
  else if List.mem name [ "core.api.inject_batch"; "core.vnic.process" ] then
    "throughput_per_s, latency_*, alloc_words_per_unit on syn-flood and fabric-bulk"
  else if has "fabric." || List.mem name [ "core.api.transmitted"; "nf.fw.process"; "nf.dpi.process"; "crypto.sha256.frame" ]
  then "throughput_per_s, peak_heap_mb on fabric-bulk"
  else if has "oracle.step" then "throughput_per_s on oracle-snic"
  else "-"

let layer_table stats =
  let total_self = Array.fold_left (fun acc (s : Spans.stat) -> acc +. s.Spans.self_ns) 0. stats in
  Printf.printf "\nPer-layer table (traced world; self time excludes child spans):\n";
  Printf.printf "  %-28s %9s %12s %12s %12s %7s  %s\n" "span" "calls" "self_us/call" "total_us/call" "words/call"
    "self%" "should move";
  Array.iteri
    (fun i (s : Spans.stat) ->
      if s.Spans.calls > 0 then
        let c = float_of_int s.Spans.calls in
        Printf.printf "  %-28s %9d %12.3f %12.3f %12.1f %6.2f%%  %s\n" Spans.names.(i) s.Spans.calls
          (s.Spans.self_ns /. c /. 1e3) (s.Spans.total_ns /. c /. 1e3) (s.Spans.self_words /. c)
          (100. *. s.Spans.self_ns /. total_self) (moves Spans.names.(i)))
    stats;
  (* How much of one handshake the crypto layer accounts for: the
     protocol makes 1 sign, 3 verifies, 2 DH keypairs and 2 shared
     secrets per handshake. *)
  let mean name =
    let s = stats.(Spans.id name) in
    if s.Spans.calls = 0 then 0. else s.Spans.total_ns /. float_of_int s.Spans.calls
  in
  let handshakes = stats.(Spans.hello).Spans.calls in
  if handshakes >= 8 then begin
    let session =
      List.fold_left
        (fun acc n -> acc +. stats.(Spans.id n).Spans.total_ns)
        0.
        [ "core.session.hello"; "core.session.quote"; "core.session.check"; "core.session.finish"; "core.session.confirm" ]
      /. float_of_int handshakes
    in
    let crypto =
      mean "crypto.rsa.sign" +. (3. *. mean "crypto.rsa.verify") +. (2. *. mean "crypto.dh.keypair")
      +. (2. *. mean "crypto.dh.shared")
    in
    Printf.printf
      "  crypto per handshake (1 sign + 3 verify + 2 keypair + 2 shared, probe means): %.0f us of %.0f us per \
       handshake (%.1f%%)\n"
      (crypto /. 1e3) (session /. 1e3) (100. *. crypto /. session)
  end

let per_layer_metrics stats counts =
  List.concat_map
    (fun name ->
      let s = stats.(Spans.id name) in
      let c = float_of_int s.Spans.calls in
      let per x = if s.Spans.calls = 0 then 0. else x /. c in
      [
        (name ^ ".calls", c, "count");
        (name ^ ".self_us_per_call", per (s.Spans.self_ns /. 1e3), "us");
        (name ^ ".words_per_call", per s.Spans.self_words, "words");
      ])
    per_layer_spans
  @ List.map
      (fun name ->
        let v = match List.assoc_opt name counts with Some v -> v | None -> 0. in
        (name, v, if String.ends_with ~suffix:"_ratio" name then "ratio" else "count"))
      per_layer_counts

(* {2 Main} *)

(* Where the traced run writes its spans, relative to the repository root
   (git-ignored). *)
let spans_dir = "perfbench/_spans"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let max_units = ref 0 and window = ref 0 and setups = ref 3 in
  let specs =
    [
      ("--workload", Arg.Set_string workload, " attest-churn | syn-flood | fabric-bulk | oracle-snic");
      ("--seed", Arg.Set_int seed, " workload seed (every input derives from it)");
      ("--seconds", Arg.Set_float seconds, " length of the timed phase");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: traced run with per-layer metrics");
      ("--units", Arg.Set_int max_units, " stop after this many units (at least the window) instead of --seconds");
      ("--window", Arg.Set_int window, " units in the identity window (default: the workload's)");
      ("--setups", Arg.Set_int setups, " set-ups per untraced run; setup_s is their median");
    ]
  in
  Arg.parse (Arg.align specs) (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "snicbench [options]";
  let w =
    match List.find_opt (fun (w : Common.workload) -> String.equal w.Common.name !workload) workloads with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %S (one of: %s)\n" !workload
        (String.concat ", " (List.map (fun (w : Common.workload) -> w.Common.name) workloads));
      exit 2
  in
  let window = if !window > 0 then !window else w.Common.window in
  let max_units = if !max_units > 0 then Some !max_units else None in
  Printf.printf "workload %s, seed %d, trace %d, unit = %s, identity window = %d units\n%!" w.Common.name !seed !trace
    w.Common.unit_name window;
  (* One set-up: (instance, seconds as measured, seconds in reference-host
     time, from the mean of the host probes just before and after). *)
  let setup_once () =
    let before = Host.probe () in
    let t0 = Clock.now_ns () in
    let s = Spans.enter Spans.setup in
    let inst = w.Common.setup ~seed:!seed in
    Spans.leave s;
    let t = Clock.seconds_since t0 in
    (inst, t, t *. Host.factor ((before +. Host.probe ()) /. 2.))
  in
  let fixed = w.Common.measure <> None in
  let throughput ?raw p = throughput ?raw ~fixed p in
  let report_phase label p =
    let raw = sorted_latencies ~raw:true p and adj = sorted_latencies p and tp = w.Common.tail in
    Printf.printf
      "%s: %d units, %d failed; %.1f minor words/unit over %d units; measured %d calls (%d units), host probe \
       %.0f us (reference %.0f us)\n\
      \  reference-host: %.1f units/s (%d slices), latency p50 %.1f us, p%g %.1f us\n\
      \  as measured:    %.1f units/s, latency p50 %.1f us, p%g %.1f us (%d of %d calls beyond p%g)\n%!"
      label p.units p.failed
      (p.window_words /. float_of_int p.window_units)
      p.window_units (Array.length raw) p.m_units (p.probe_ns /. 1e3) (Host.ref_ns /. 1e3) (throughput p)
      (List.length p.raw_rates)
      (percentile adj 50. /. 1e3)
      tp
      (percentile adj tp /. 1e3)
      (throughput ~raw:true p)
      (percentile raw 50. /. 1e3)
      tp
      (percentile raw tp /. 1e3)
      (beyond raw tp) (Array.length raw) tp;
    adj
  in
  let result ~phase ~errors ~metrics ~extra =
    print_endline
      ("RESULT "
      ^ json_obj
          ([
             ("workload", json_string w.Common.name);
             ("seed", string_of_int !seed);
             ("trace", string_of_int !trace);
             ("window", string_of_int window);
             ("attempted", string_of_int phase.units);
             ("failed", string_of_int phase.failed);
             ("errors", json_list (List.map json_string errors));
             ("identity", identity_json phase.identity);
             ("metrics", json_obj (List.map metric metrics));
           ]
          @ extra))
  in
  if !trace = 0 then begin
    let times = ref [] and raw_times = ref [] and last = ref None in
    for _ = 1 to max 1 !setups do
      last := None;
      let inst, raw, t = setup_once () in
      times := t :: !times;
      raw_times := raw :: !raw_times;
      last := Some inst
    done;
    let inst = Option.get !last in
    Printf.printf "set-up: %s s as measured, %s s reference-host\n%!"
      (String.concat ", " (List.rev_map (Printf.sprintf "%.3f") !raw_times))
      (String.concat ", " (List.rev_map (Printf.sprintf "%.3f") !times));
    let r = runner ?measure:w.Common.measure inst ~window in
    run_loop [ r ] ~seconds:!seconds ~max_units;
    let p = phase r in
    let sorted = report_phase "untraced" p in
    let tp = w.Common.tail in
    let success = float_of_int (p.units - p.failed) /. float_of_int (max 1 p.units) in
    Printf.printf "latency_tail_us is p%g (%d of %d calls beyond); fail_ratio %g; peak heap %.1f MB\n" tp
      (beyond sorted tp) (Array.length sorted) (1. -. success) p.heap_mb;
    let metrics =
      [
        ("setup_s", median !times, "s");
        ("throughput_per_s", throughput p, "units/s");
        ("latency_p50_us", percentile sorted 50. /. 1e3, "us");
        ("latency_tail_us", percentile sorted tp /. 1e3, "us");
        ("alloc_words_per_unit", p.window_words /. float_of_int p.window_units, "words");
        ("peak_heap_mb", p.heap_mb, "MB");
        ("success_ratio", success, "ratio");
      ]
    in
    result ~phase:p ~errors:p.errors ~metrics
      ~extra:[ ("tail_percentile", json_number tp); ("tail_beyond", string_of_int (beyond sorted tp)) ]
  end
  else begin
    (* Two identical worlds from the same seed, stepped alternately so
       both see the same heap and machine conditions: one untraced, one
       with spans on.  The probe runs after the loop. *)
    let inst_u, _, _ = setup_once () in
    Spans.start ~capacity:(1 lsl 20);
    let inst_t, _, _ = setup_once () in
    Spans.stop ();
    let measure = w.Common.measure in
    let ru = runner ?measure inst_u ~window and rt = runner ~traced:true ?measure inst_t ~window in
    run_loop [ ru; rt ] ~seconds:!seconds ~max_units;
    let untraced = phase ru and traced = phase rt in
    Spans.enabled := true;
    let s = Spans.enter Spans.probe in
    crypto_probe ~seed:!seed;
    Spans.leave s;
    Spans.stop ();
    ignore (report_phase "untraced world" untraced);
    ignore (report_phase "traced world" traced);
    let stats = Spans.stats () in
    layer_table stats;
    let overhead = throughput untraced /. throughput traced in
    Printf.printf
      "tracing overhead: traced throughput %.1f vs untraced %.1f reference-host units/s (x%.3f slower); span times \
       above are as measured\n"
      (throughput traced) (throughput untraced) overhead;
    Printf.printf "minor words over the identity window: traced %.0f, untraced %.0f\n" traced.window_words
      untraced.window_words;
    let same = untraced.identity = traced.identity in
    Printf.printf "identity values of the traced world %s the untraced world's\n" (if same then "equal" else "DIFFER FROM");
    (try
       if not (Sys.file_exists spans_dir) then Sys.mkdir spans_dir 0o755;
       let path = Filename.concat spans_dir (Printf.sprintf "%s-seed%d.tsv" w.Common.name !seed) in
       Spans.write path;
       Printf.printf "spans written to %s (%d spans)\n" path !Spans.n
     with Sys_error e -> Printf.printf "spans not written: %s\n" e);
    let errors =
      untraced.errors @ traced.errors
      @ if same then [] else [ "the traced world's identity values differ from the untraced world's" ]
    in
    let merged = { traced with units = untraced.units + traced.units; failed = untraced.failed + traced.failed } in
    result ~phase:merged ~errors
      ~metrics:(per_layer_metrics stats traced.layer_counts)
      ~extra:
        [
          ("identity_untraced", identity_json untraced.identity);
          ("trace_overhead_x", json_number overhead);
        ]
  end
