(* Deterministic saturation driver for VF fairness runs.

   One scenario NIC is a fresh S-NIC machine with every VF slot attached
   and kept backlogged: each VF starts with [prefill] queued descriptors
   and is topped back up after every service, so the two-stage scheduler
   always chooses among all VFs.  We then serve a fixed byte budget of
   [cycles * quantum * total_weight] — i.e. about [cycles] full stage-1
   rotations — and read the weighted goodput shares off the table.
   Everything (packet sizes, flows) comes from one seeded [Trace.Rng],
   so a run is a pure function of its parameters: the CLI prints it
   twice and diffs, and the bench baselines the totals. *)

open Nicsim

type nic_result = {
  nic : int;
  vnics : int;
  scheduled_pkts : int;
  scheduled_bytes : int;
  rounds : int;
  drops : int;
  report : Obs.Fairness.report;
  lat_report : Obs.Fairness.report;
}

type result = {
  nics : nic_result list;
  total_pkts : int;
  total_bytes : int;
  total_drops : int;
  jain_min : float;
  max_rel_err : float;
}

type error =
  | Attach_failed of { nic : int; vf : int; reason : string }
  | Doorbell_failed of { nic : int; vf : int; fault : Machine.fault }

let error_to_string = function
  | Attach_failed { nic; vf; reason } -> Printf.sprintf "nic %d vf %d: attach failed: %s" nic vf reason
  | Doorbell_failed { nic; vf; fault } ->
    Printf.sprintf "nic %d vf %d: doorbell failed: %s" nic vf (Machine.fault_to_string fault)

(* Raised by [drive_nic] on the first VF it cannot bring up; [run_nic]
   and [run] turn it into their [Error]. *)
exception Bring_up of error

let prefill_depth = 16

(* 64..1023-byte frames: the max frame stays below the stage-1 quantum,
   which keeps the one-packet DRR overshoot small against the credit. *)
let frame_bytes rng = 64 + Trace.Rng.int rng 960

let drive_nic ~sink ~config ~nic ~cycles ~seed ~vnics =
  if cycles < 1 then invalid_arg "Vf.Scenario.run_nic: cycles must be >= 1";
  let n = List.length vnics in
  if n < 1 then invalid_arg "Vf.Scenario.run_nic: need at least one vNIC";
  let machine = Machine.create (Machine.default_config ~mode:Machine.Snic) in
  let table = Table.create machine { config with vfs = n } in
  Table.set_sink table sink ~track:Table.track_vf;
  let rng = Trace.Rng.create ~seed:(seed + (nic * 1000003)) in
  List.iteri
    (fun vf (nf, weight) ->
      (match Table.attach table ~vf ~nf ~weight with
      | Ok _ -> ()
      | Error reason -> raise (Bring_up (Attach_failed { nic; vf; reason })));
      (* Ring the doorbell once as the owner, like a driver kicking its
         freshly initialized queue. *)
      match Table.doorbell table ~principal:(Machine.Nf_code nf) ~vf ~value:(vf + 1) with
      | Ok () -> ()
      | Error fault -> raise (Bring_up (Doorbell_failed { nic; vf; fault })))
    vnics;
  let submit vf =
    ignore (Table.tx_submit table ~vf ~flow:(Trace.Rng.int rng 8) ~bytes:(frame_bytes rng) : bool)
  in
  for vf = 0 to n - 1 do
    for _ = 1 to prefill_depth do
      submit vf
    done
  done;
  let total_weight = List.fold_left (fun a (_, w) -> a + w) 0 vnics in
  let budget = cycles * config.quantum * total_weight in
  let served = ref 0 in
  let pkts = ref 0 in
  (* Per-VF service-latency proxy: the gap, counted in fleet-wide
     services, between consecutive services of the same VF.  A weight-w
     VF is picked ~w times as often, so its tail gap should be ~w times
     shorter — exactly what the latency-weighted Jain report scores. *)
  let last_served = Array.make n (-1) in
  let gaps = Array.make n [] in
  (try
     while !served < budget do
       match Table.tx_next table with
       | None -> raise Exit
       | Some (vf, d) ->
         served := !served + d.bytes;
         if last_served.(vf) >= 0 then gaps.(vf) <- float_of_int (!pkts - last_served.(vf)) :: gaps.(vf);
         last_served.(vf) <- !pkts;
         incr pkts;
         submit vf
     done
   with Exit -> ());
  let drops =
    let acc = ref 0 in
    for vf = 0 to n - 1 do
      let s = Table.stats table ~vf in
      acc := !acc + s.Table.tx_drops + s.Table.rx_drops
    done;
    !acc
  in
  let lat_report =
    Obs.Fairness.latency_weighted_report
      (List.concat
         (List.mapi
            (fun vf (_, weight) ->
              match Obs.Metrics.quantile_of_samples gaps.(vf) 0.99 with
              | Some p99 -> [ (vf, p99, float_of_int weight) ]
              | None -> [])
            vnics))
  in
  {
    nic;
    vnics = n;
    scheduled_pkts = !pkts;
    scheduled_bytes = !served;
    rounds = Table.rounds table;
    drops;
    report = Table.fairness table;
    lat_report;
  }

(* Weights cycle 1,2,4,8 down the VF ids so every NIC hosts a mix. *)
let weight_cycle = [| 1; 2; 4; 8 |]

let default_vnics ~nic ~vfs =
  List.init vfs (fun vf -> ((nic * 10000) + vf + 1, weight_cycle.(vf mod 4)))

let run_nic ?(sink = Obs.null) ~nic ~cycles ~seed ~vnics () =
  match drive_nic ~sink ~config:Table.default_config ~nic ~cycles ~seed ~vnics with
  | r -> Ok r
  | exception Bring_up e -> Error e

let aggregate results =
  let total_pkts = List.fold_left (fun a r -> a + r.scheduled_pkts) 0 results in
  let total_bytes = List.fold_left (fun a r -> a + r.scheduled_bytes) 0 results in
  let total_drops = List.fold_left (fun a r -> a + r.drops) 0 results in
  let jain_min =
    List.fold_left (fun a r -> Float.min a r.report.Obs.Fairness.index) infinity results
  in
  let max_rel_err =
    List.fold_left (fun a r -> Float.max a r.report.Obs.Fairness.max_rel_err) 0. results
  in
  { nics = results; total_pkts; total_bytes; total_drops; jain_min; max_rel_err }

let run ?(sink = Obs.null) ?(config = Table.default_config) ~nics ~vfs ~cycles ~seed () =
  if nics < 1 then invalid_arg "Vf.Scenario.run: nics must be >= 1";
  if vfs < 1 then invalid_arg "Vf.Scenario.run: vfs must be >= 1";
  match List.init nics (fun nic -> drive_nic ~sink ~config ~nic ~cycles ~seed ~vnics:(default_vnics ~nic ~vfs)) with
  | results -> Ok (aggregate results)
  | exception Bring_up e -> Error e

let check ?(min_jain = 0.95) ?(max_err_pct = 5.0) r =
  let err_pct = 100. *. r.max_rel_err in
  List.filter_map
    (fun (violated, msg) -> if violated then Some msg else None)
    [
      (r.jain_min < min_jain, Printf.sprintf "jain %.4f below floor %.4f" r.jain_min min_jain);
      (err_pct > max_err_pct, Printf.sprintf "share error %.2f%% above ceiling %.2f%%" err_pct max_err_pct);
    ]

let nic_summary r =
  Printf.sprintf
    "nic %3d: vnics=%d pkts=%d bytes=%d rounds=%d drops=%d jain=%.4f max-err=%.2f%% lat-jain=%.4f"
    r.nic r.vnics r.scheduled_pkts r.scheduled_bytes r.rounds r.drops r.report.Obs.Fairness.index
    (100. *. r.report.Obs.Fairness.max_rel_err)
    r.lat_report.Obs.Fairness.index

let summary r =
  let b = Buffer.create 256 in
  List.iter
    (fun nr ->
      Buffer.add_string b (nic_summary nr);
      Buffer.add_char b '\n')
    r.nics;
  Buffer.add_string b
    (Printf.sprintf "total: pkts=%d bytes=%d drops=%d jain-min=%.4f max-err=%.2f%%\n" r.total_pkts
       r.total_bytes r.total_drops r.jain_min (100. *. r.max_rel_err));
  Buffer.contents b
