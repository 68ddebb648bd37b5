(* oracle-snic: the isolation oracle in S-NIC mode.  Set-up generates a
   seeded op stream with [Oracle.Campaign.gen_ops_array] (default slots,
   no fabric ops) and boots the harness; each op then goes to
   [Oracle.Harness.step] one at a time.  One unit is one step.  This is
   the only workload that drives lib/oracle (harness plus reference
   model) and the machine's checked load/store/MMIO/DMA/VF paths. *)

(* The identity window spans many ops because the op mix, and with it
   the allocation per step, varies with the seed: a handful of attests
   more or less moves minor words per step by percents. *)
let window = 131072
let round_ops = 65536 (* ops per generated round; later rounds are drawn as the run needs them *)
let replay_ops = 16384 (* the prefix the batched interpreter re-runs as a differential check *)

let kind_of : Oracle.Op.t -> string = function
  | Oracle.Op.Launch _ -> "launch"
  | Teardown _ -> "teardown"
  | Attest _ -> "attest"
  | Read _ -> "read"
  | Write _ -> "write"
  | Dma _ -> "dma"
  | Stream _ -> "stream"
  | Mmio_write _ -> "mmio"
  | Inject _ -> "inject"
  | Vf_attach _ -> "vfattach"
  | Vf_detach _ -> "vfdetach"
  | Vf_doorbell _ -> "vfdoorbell"
  | Vf_queue_read _ -> "vfqread"
  | Qos_admit _ -> "qos"
  | Chan_open _ | Chan_send _ | Chan_replay _ -> "chan"

let kinds =
  [ "launch"; "teardown"; "attest"; "read"; "write"; "dma"; "stream"; "mmio"; "inject"; "vfattach"; "vfdetach";
    "vfdoorbell"; "vfqread"; "qos"; "chan" ]

let kind_index k =
  let rec go i = function [] -> invalid_arg k | x :: rest -> if String.equal x k then i else go (i + 1) rest in
  go 0 kinds

let span_of_kind = Array.of_list (List.map (fun k -> Spans.id ("oracle.step." ^ k)) kinds)

let setup ~seed =
  let slots = Oracle.Campaign.default_slots in
  let gen round = Oracle.Campaign.gen_ops_array ~slots ~ops:round_ops ~seed:(Common.derive seed (0x0AC0 + round)) () in
  let ops = ref (gen 0) and rounds = ref 1 and pos = ref 0 in
  let first_round = !ops in
  let harness =
    (* Harness.create boots its S-NIC through Snic.Api.boot. *)
    let s = Spans.enter Spans.boot in
    let h = Oracle.Harness.create ~mode:Nicsim.Machine.Snic ~slots in
    Spans.leave s;
    h
  in
  let n_kinds = List.length kinds in
  let generated = Array.make n_kinds 0 and executed = Array.make n_kinds 0 in
  let steps = ref 0 and violations = ref 0 and at_replay = ref (0, 0) in
  let op = ref first_round.(0) and kind = ref 0 in
  let prepare () =
    if !pos = Array.length !ops then begin
      ops := gen !rounds;
      incr rounds;
      pos := 0
    end;
    op := !ops.(!pos);
    incr pos;
    kind := kind_index (kind_of !op)
  in
  let call () =
    let before = Oracle.Harness.executed harness in
    let s = Spans.enter span_of_kind.(!kind) in
    Oracle.Harness.step harness !op;
    Spans.leave s;
    incr steps;
    if !steps = replay_ops then at_replay := (Oracle.Harness.executed harness, Oracle.Harness.skipped harness);
    generated.(!kind) <- generated.(!kind) + 1;
    if Oracle.Harness.executed harness > before then executed.(!kind) <- executed.(!kind) + 1;
    match Oracle.Harness.violations harness with
    | [] -> (1, 0)
    | vs ->
      let n = List.length vs in
      let fresh = n - !violations in
      violations := n;
      (1, min 1 fresh)
  in
  let errors = ref [] in
  let identity () =
    (* Differential check: the batched campaign interpreter replays the
       first ops on a fresh harness and must agree with the step-by-step
       run at that point. *)
    let n = min replay_ops !steps in
    let replay = Oracle.Campaign.replay_array ~slots ~mode:Nicsim.Machine.Snic (Array.sub first_round 0 n) in
    let rex, rsk = if n = replay_ops then !at_replay else (Oracle.Harness.executed harness, Oracle.Harness.skipped harness) in
    if replay.Oracle.Campaign.executed <> rex || replay.Oracle.Campaign.skipped <> rsk then
      errors :=
        Printf.sprintf "step-by-step run (%d executed, %d skipped) disagrees with the batched replay (%d, %d)" rex rsk
          replay.Oracle.Campaign.executed replay.Oracle.Campaign.skipped
        :: !errors;
    let ex = Oracle.Harness.executed harness and sk = Oracle.Harness.skipped harness in
    [
      ("steps", string_of_int !steps);
      ("executed", string_of_int ex);
      ("skipped", string_of_int sk);
      ("violations", string_of_int !violations);
      ( "per_kind_generated_executed",
        String.concat ","
          (List.mapi (fun i k -> Printf.sprintf "%s=%d/%d" k generated.(i) executed.(i)) kinds) );
    ]
  in
  let finish () =
    List.rev !errors
    @ (if !violations > 0 then
         List.map
           (fun v -> "violation: " ^ Oracle.Refmodel.to_string v)
           (List.filteri (fun i _ -> i < 5) (Oracle.Harness.violations harness))
       else [])
    @
    let ex = Oracle.Harness.executed harness and sk = Oracle.Harness.skipped harness in
    if ex + sk <> !steps then [ Printf.sprintf "executed %d + skipped %d <> steps %d" ex sk !steps ] else []
  in
  let layer_counts () =
    [ ("oracle.executed_ratio", Common.ratio (Oracle.Harness.executed harness) !steps) ]
  in
  { Common.prepare; call; identity; finish; layer_counts }

let workload = { Common.name = "oracle-snic"; unit_name = "oracle step"; window; tail = 99.9; measure = None; setup }
