(* In-memory span recorder for the traced run.

   A span is one call the benchmark makes into a layer: its name, start
   and end on the monotonic clock, the span that was open when it began
   (its parent), the unit it belongs to, and the minor words allocated
   while it was open.  Spans live in preallocated arrays that double
   when full; [enter]/[leave] allocate nothing on the minor heap, so
   they do not disturb the allocation they measure.  When recording is
   off, [enter] returns -1 and [leave] ignores it. *)

let names =
  [|
    "bench.unit";
    "bench.setup";
    "bench.probe";
    "core.api.boot";
    "crypto.rsa.generate";
    "core.session.hello";
    "core.session.quote";
    "core.session.check";
    "core.session.finish";
    "core.session.confirm";
    "crypto.rsa.sign";
    "crypto.rsa.verify";
    "crypto.dh.keypair";
    "crypto.dh.shared";
    "bigint.modpow";
    "core.api.nf_create";
    "core.api.nf_destroy";
    "nf.synp.process";
    "crypto.hmac.cookie";
    "core.api.inject_batch";
    "core.vnic.process";
    "core.api.transmitted";
    "fabric.channel.send";
    "fabric.channel.recv";
    "nf.fw.process";
    "nf.dpi.process";
    "crypto.sha256.frame";
    "oracle.step.launch";
    "oracle.step.teardown";
    "oracle.step.attest";
    "oracle.step.read";
    "oracle.step.write";
    "oracle.step.dma";
    "oracle.step.stream";
    "oracle.step.mmio";
    "oracle.step.inject";
    "oracle.step.vfattach";
    "oracle.step.vfdetach";
    "oracle.step.vfdoorbell";
    "oracle.step.vfqread";
    "oracle.step.qos";
    "oracle.step.chan";
    "nf.mon.process";
    "fabric.endpoint.establish";
  |]

let id name =
  let rec go i =
    if i = Array.length names then invalid_arg ("Spans.id: unknown span " ^ name)
    else if String.equal names.(i) name then i
    else go (i + 1)
  in
  go 0

let unit_ = id "bench.unit"
let setup = id "bench.setup"
let probe = id "bench.probe"
let boot = id "core.api.boot"
let rsa_generate = id "crypto.rsa.generate"
let hello = id "core.session.hello"
let quote = id "core.session.quote"
let check = id "core.session.check"
let finish = id "core.session.finish"
let confirm = id "core.session.confirm"
let rsa_sign = id "crypto.rsa.sign"
let rsa_verify = id "crypto.rsa.verify"
let dh_keypair = id "crypto.dh.keypair"
let dh_shared = id "crypto.dh.shared"
let modpow = id "bigint.modpow"
let nf_create = id "core.api.nf_create"
let nf_destroy = id "core.api.nf_destroy"
let synp = id "nf.synp.process"
let hmac_cookie = id "crypto.hmac.cookie"
let inject_batch = id "core.api.inject_batch"
let vnic_process = id "core.vnic.process"
let transmitted = id "core.api.transmitted"
let chan_send = id "fabric.channel.send"
let chan_recv = id "fabric.channel.recv"
let fw = id "nf.fw.process"
let dpi = id "nf.dpi.process"
let sha256_frame = id "crypto.sha256.frame"
let mon = id "nf.mon.process"
let establish = id "fabric.endpoint.establish"

(* Recording state.  [top] is the innermost open span. *)
let enabled = ref false
let current_unit = ref (-1)
let n = ref 0
let top = ref (-1)
let name_a = ref (Array.make 0 0)
let start_a = ref (Array.make 0 0)
let stop_a = ref (Array.make 0 0)
let parent_a = ref (Array.make 0 0)
let unit_a = ref (Array.make 0 0)
let w0_a = ref (Array.make 0 0.)
let w1_a = ref (Array.make 0 0.)

let grow () =
  let cap = max 4096 (2 * Array.length !name_a) in
  let extend a fill = Array.init cap (fun i -> if i < Array.length a then a.(i) else fill) in
  name_a := extend !name_a 0;
  start_a := extend !start_a 0;
  stop_a := extend !stop_a 0;
  parent_a := extend !parent_a 0;
  unit_a := extend !unit_a 0;
  w0_a := extend !w0_a 0.;
  w1_a := extend !w1_a 0.

let start ~capacity =
  enabled := true;
  n := 0;
  top := -1;
  while Array.length !name_a < capacity do
    grow ()
  done

let stop () = enabled := false

let enter name =
  if not !enabled then -1
  else begin
    if !n = Array.length !name_a then grow ();
    let i = !n in
    n := i + 1;
    !name_a.(i) <- name;
    !parent_a.(i) <- !top;
    !unit_a.(i) <- !current_unit;
    !w0_a.(i) <- Gc.minor_words ();
    !start_a.(i) <- Clock.now_ns ();
    top := i;
    i
  end

let leave i =
  if i >= 0 then begin
    !stop_a.(i) <- Clock.now_ns ();
    !w1_a.(i) <- Gc.minor_words ();
    top := !parent_a.(i)
  end

(* [wrap_nf name nf] records a span around every packet the NF closure
   handles.  Only the traced run installs it. *)
let wrap_nf name (nf : Nf.Types.t) =
  if not !enabled then nf
  else
    {
      nf with
      Nf.Types.process =
        (fun pkt ->
          let s = enter name in
          let v = nf.Nf.Types.process pkt in
          leave s;
          v);
    }

(* {2 Aggregation} *)

type stat = { calls : int; self_ns : float; total_ns : float; self_words : float }

(* Self time is a span's duration minus the time its children cover;
   self words likewise.  Spans nest strictly (one domain, no threads),
   so children never overlap one another. *)
let stats () =
  let count = !n in
  let child_ns = Array.make count 0 and child_w = Array.make count 0. in
  for i = 0 to count - 1 do
    let p = !parent_a.(i) in
    if p >= 0 then begin
      child_ns.(p) <- child_ns.(p) + (!stop_a.(i) - !start_a.(i));
      child_w.(p) <- child_w.(p) +. (!w1_a.(i) -. !w0_a.(i))
    end
  done;
  let acc = Array.make (Array.length names) { calls = 0; self_ns = 0.; total_ns = 0.; self_words = 0. } in
  for i = 0 to count - 1 do
    let k = !name_a.(i) in
    let dur = !stop_a.(i) - !start_a.(i) in
    let a = acc.(k) in
    acc.(k) <-
      {
        calls = a.calls + 1;
        self_ns = a.self_ns +. float_of_int (dur - child_ns.(i));
        total_ns = a.total_ns +. float_of_int dur;
        self_words = a.self_words +. (!w1_a.(i) -. !w0_a.(i) -. child_w.(i));
      }
  done;
  acc

(* One span per line: index, name, start and end (ns), parent index
   (-1 at the root), unit (-1 during set-up), words allocated. *)
let write path =
  let oc = open_out path in
  output_string oc "idx\tname\tstart_ns\tend_ns\tparent\tunit\twords\n";
  for i = 0 to !n - 1 do
    Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\t%.0f\n" i names.(!name_a.(i)) !start_a.(i) !stop_a.(i) !parent_a.(i)
      !unit_a.(i) (!w1_a.(i) -. !w0_a.(i))
  done;
  close_out oc
