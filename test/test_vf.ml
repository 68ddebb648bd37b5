(* lib/vf: SR-IOV-style virtual functions and the two-stage transmit
   scheduler.

   Covers the VF table lifecycle (page-aligned windows, S-NIC scrub on
   detach), strict per-VF quota accounting, the machine-policed doorbell
   and ring-window accesses, the Vfplace packing arithmetic, the
   Fairness summary math, and the Scenario driver's determinism and
   weighted-share convergence. *)

open Nicsim

let fresh_machine mode = Machine.create (Machine.default_config ~mode)

let small_table ?(mode = Machine.Snic) ?(vfs = 8) () =
  let m = fresh_machine mode in
  (m, Vf.Table.create m { Vf.Table.default_config with Vf.Table.vfs })

(* ---- table lifecycle ---------------------------------------------- *)

let test_attach_detach_lifecycle () =
  let _, t = small_table () in
  Alcotest.(check int) "starts empty" 0 (Vf.Table.attached_count t);
  let base =
    match Vf.Table.attach t ~vf:3 ~nf:101 ~weight:4 with
    | Ok b -> b
    | Error e -> Alcotest.failf "attach failed: %s" e
  in
  Alcotest.(check int) "window is page-aligned" 0 (base mod Physmem.page_size);
  Alcotest.(check bool) "attached" true (Vf.Table.attached t ~vf:3);
  Alcotest.(check (option int)) "owner" (Some 101) (Vf.Table.owner_nf t ~vf:3);
  Alcotest.(check (option int)) "weight" (Some 4) (Vf.Table.weight t ~vf:3);
  Alcotest.(check (option int)) "base" (Some base) (Vf.Table.window_base t ~vf:3);
  (match Vf.Table.attach t ~vf:3 ~nf:102 ~weight:1 with
  | Ok _ -> Alcotest.fail "double attach must fail"
  | Error _ -> ());
  Vf.Table.detach t ~vf:3;
  Alcotest.(check bool) "detached" false (Vf.Table.attached t ~vf:3);
  Alcotest.(check (option int)) "no owner" None (Vf.Table.owner_nf t ~vf:3);
  (* Idempotent. *)
  Vf.Table.detach t ~vf:3;
  Alcotest.(check int) "empty again" 0 (Vf.Table.attached_count t);
  Alcotest.check_raises "out-of-range vf"
    (Invalid_argument "Vf.Table.attach: vf 99 out of range (table has 8)")
    (fun () -> ignore (Vf.Table.attach t ~vf:99 ~nf:1 ~weight:1))

let test_snic_detach_scrubs_window () =
  let m, t = small_table ~mode:Machine.Snic () in
  let base =
    match Vf.Table.attach t ~vf:0 ~nf:7 ~weight:1 with
    | Ok b -> b
    | Error e -> Alcotest.failf "attach failed: %s" e
  in
  (* The ring pattern is live in the window page... *)
  Alcotest.(check bool) "pattern present" false
    (Physmem.is_zero (Machine.mem m) ~pos:base ~len:Physmem.page_size);
  Vf.Table.detach t ~vf:0;
  (* ...and gone after an S-NIC detach: single-owner RAM is returned
     scrubbed, so the next owner can never read VF residue. *)
  Alcotest.(check bool) "window scrubbed" true
    (Physmem.is_zero (Machine.mem m) ~pos:base ~len:Physmem.page_size)

let test_commodity_detach_leaves_residue () =
  let m, t = small_table ~mode:Machine.Liquidio_se_s () in
  let base =
    match Vf.Table.attach t ~vf:0 ~nf:7 ~weight:1 with
    | Ok b -> b
    | Error e -> Alcotest.failf "attach failed: %s" e
  in
  Vf.Table.detach t ~vf:0;
  Alcotest.(check bool) "commodity firmware leaves the ring bytes" false
    (Physmem.is_zero (Machine.mem m) ~pos:base ~len:Physmem.page_size)

(* ---- strict per-VF queue accounting ------------------------------- *)

let test_tx_quota_is_per_vf () =
  let m = fresh_machine Machine.Snic in
  let t = Vf.Table.create m { Vf.Table.default_config with Vf.Table.vfs = 4; Vf.Table.tx_quota = 4 } in
  List.iter
    (fun vf ->
      match Vf.Table.attach t ~vf ~nf:(100 + vf) ~weight:1 with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "attach %d: %s" vf e)
    [ 0; 1 ];
  for i = 0 to 3 do
    Alcotest.(check bool) "vf 0 admits up to quota" true
      (Vf.Table.tx_submit t ~vf:0 ~flow:i ~bytes:100)
  done;
  Alcotest.(check bool) "vf 0 over quota drops" false (Vf.Table.tx_submit t ~vf:0 ~flow:9 ~bytes:100);
  (* The full neighbour never bleeds into vf 1's descriptors. *)
  Alcotest.(check bool) "vf 1 unaffected" true (Vf.Table.tx_submit t ~vf:1 ~flow:0 ~bytes:100);
  Alcotest.(check int) "vf 0 backlog at quota" 4 (Vf.Table.tx_backlog t ~vf:0);
  Alcotest.(check int) "vf 1 backlog" 1 (Vf.Table.tx_backlog t ~vf:1);
  Alcotest.(check int) "drop counted against vf 0" 1 (Vf.Table.stats t ~vf:0).Vf.Table.tx_drops;
  Alcotest.(check int) "no drops on vf 1" 0 (Vf.Table.stats t ~vf:1).Vf.Table.tx_drops;
  (* Detached slots refuse descriptors outright. *)
  Alcotest.(check bool) "detached slot refuses" false (Vf.Table.tx_submit t ~vf:2 ~flow:0 ~bytes:100)

let test_rx_quota_bounded () =
  let m = fresh_machine Machine.Snic in
  let t = Vf.Table.create m { Vf.Table.default_config with Vf.Table.vfs = 2; Vf.Table.rx_quota = 2 } in
  (match Vf.Table.attach t ~vf:0 ~nf:1 ~weight:1 with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "attach: %s" e);
  let d = { Vf.Table.flow = 0; Vf.Table.bytes = 64 } in
  Alcotest.(check bool) "rx 1" true (Vf.Table.rx_push t ~vf:0 d);
  Alcotest.(check bool) "rx 2" true (Vf.Table.rx_push t ~vf:0 d);
  Alcotest.(check bool) "rx over quota" false (Vf.Table.rx_push t ~vf:0 d);
  Alcotest.(check int) "rx depth" 2 (Vf.Table.rx_depth t ~vf:0);
  Alcotest.(check int) "rx drop counted" 1 (Vf.Table.stats t ~vf:0).Vf.Table.rx_drops;
  Alcotest.(check bool) "rx pop" true (Vf.Table.rx_pop t ~vf:0 = Some d)

let test_detach_drops_queued_descriptors () =
  let _, t = small_table ~vfs:2 () in
  List.iter
    (fun vf ->
      match Vf.Table.attach t ~vf ~nf:(1 + vf) ~weight:1 with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "attach: %s" e)
    [ 0; 1 ];
  for i = 0 to 4 do
    ignore (Vf.Table.tx_submit t ~vf:0 ~flow:0 ~bytes:100);
    ignore (Vf.Table.tx_submit t ~vf:1 ~flow:i ~bytes:100)
  done;
  Vf.Table.detach t ~vf:0;
  (* Every remaining scheduled descriptor belongs to the survivor. *)
  let rec drain n =
    match Vf.Table.tx_next t with
    | None -> n
    | Some (vf, _) ->
      Alcotest.(check int) "survivor only" 1 vf;
      drain (n + 1)
  in
  Alcotest.(check int) "survivor's 5 descriptors" 5 (drain 0)

(* ---- machine-policed window accesses ------------------------------ *)

let test_snic_doorbell_isolation () =
  let _, t = small_table ~mode:Machine.Snic ~vfs:4 () in
  List.iter
    (fun (vf, nf) ->
      match Vf.Table.attach t ~vf ~nf ~weight:1 with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "attach: %s" e)
    [ (0, 50); (1, 51) ];
  (match Vf.Table.doorbell t ~principal:(Machine.Nf_code 50) ~vf:0 ~value:7 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "owner doorbell must succeed");
  Alcotest.(check int) "doorbell latched" 7 (Vf.Table.stats t ~vf:0).Vf.Table.last_doorbell;
  Alcotest.(check int) "doorbell counted" 1 (Vf.Table.stats t ~vf:0).Vf.Table.doorbells;
  (* S-NIC single-owner RAM: tenant 51 cannot kick tenant 50's VF. *)
  (match Vf.Table.doorbell t ~principal:(Machine.Nf_code 51) ~vf:0 ~value:9 with
  | Ok () -> Alcotest.fail "cross-VF doorbell must fault on S-NIC"
  | Error _ -> ());
  Alcotest.(check int) "value unchanged" 7 (Vf.Table.stats t ~vf:0).Vf.Table.last_doorbell;
  Alcotest.check_raises "detached doorbell raises"
    (Invalid_argument "Vf.Table.doorbell: vf not attached")
    (fun () -> ignore (Vf.Table.doorbell t ~principal:Machine.Os ~vf:2 ~value:1))

let test_snic_queue_read_isolation_and_pattern () =
  let _, t = small_table ~mode:Machine.Snic ~vfs:4 () in
  (match Vf.Table.attach t ~vf:2 ~nf:60 ~weight:1 with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "attach: %s" e);
  (match Vf.Table.attach t ~vf:3 ~nf:61 ~weight:1 with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "attach: %s" e);
  (match Vf.Table.queue_read t ~principal:(Machine.Nf_code 60) ~vf:2 ~len:32 with
  | Ok bytes ->
    (* The ring image is the deterministic per-VF pattern, skipping the
       8-byte doorbell register. *)
    Alcotest.(check string) "ring bytes match the pure pattern"
      (String.sub (Vf.Table.window_pattern ~vf:2) 8 32)
      bytes
  | Error _ -> Alcotest.fail "owner ring read must succeed");
  (match Vf.Table.queue_read t ~principal:(Machine.Nf_code 61) ~vf:2 ~len:32 with
  | Ok _ -> Alcotest.fail "cross-VF ring snoop must fault on S-NIC"
  | Error _ -> ())

let test_commodity_cross_vf_access_succeeds () =
  (* The contrast case: a commodity NIC's BAR space takes the cross-VF
     kick and snoop — exactly the gap the oracle classifies. *)
  let _, t = small_table ~mode:Machine.Liquidio_se_s ~vfs:4 () in
  (match Vf.Table.attach t ~vf:0 ~nf:50 ~weight:1 with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "attach: %s" e);
  (match Vf.Table.attach t ~vf:1 ~nf:51 ~weight:1 with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "attach: %s" e);
  (match Vf.Table.doorbell t ~principal:(Machine.Nf_code 51) ~vf:0 ~value:9 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "commodity cross-VF doorbell goes through");
  match Vf.Table.queue_read t ~principal:(Machine.Nf_code 51) ~vf:0 ~len:16 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "commodity cross-VF snoop goes through"

(* ---- fairness math ------------------------------------------------ *)

let test_jain_index_cases () =
  let feq = Alcotest.float 1e-9 in
  Alcotest.(check feq) "empty is fair" 1.0 (Obs.Fairness.jain []);
  Alcotest.(check feq) "all-zero is fair" 1.0 (Obs.Fairness.jain [ 0.; 0. ]);
  Alcotest.(check feq) "equal shares" 1.0 (Obs.Fairness.jain [ 3.; 3.; 3.; 3. ]);
  Alcotest.(check feq) "one hog of n=4" 0.25 (Obs.Fairness.jain [ 8.; 0.; 0.; 0. ]);
  let r = Obs.Fairness.weighted_report [ (0, 100., 1.); (1, 200., 2.); (2, 400., 4.) ] in
  Alcotest.(check feq) "weight-normalized goodput is perfectly fair" 1.0 r.Obs.Fairness.index;
  Alcotest.(check feq) "no share error" 0.0 r.Obs.Fairness.max_rel_err

(* ---- vfplace packing ---------------------------------------------- *)

let sites = [ { Fleet.Vfplace.nic = 0; Fleet.Vfplace.slots = 2 }; { Fleet.Vfplace.nic = 1; Fleet.Vfplace.slots = 2 } ]
let vnic tenant = { Fleet.Vfplace.tenant; Fleet.Vfplace.weight = 1 }

let nic_of a = a.Fleet.Vfplace.nic
let vf_of a = a.Fleet.Vfplace.vf

let test_vfplace_packed_and_spread () =
  let vnics = List.map vnic [ 10; 11; 12 ] in
  (match Fleet.Vfplace.pack Fleet.Vfplace.Packed ~sites ~vnics with
  | Ok l ->
    Alcotest.(check (list (pair int int))) "packed fills NIC 0 first" [ (0, 0); (0, 1); (1, 0) ]
      (List.map (fun a -> (nic_of a, vf_of a)) l)
  | Error e -> Alcotest.fail e);
  (match Fleet.Vfplace.pack Fleet.Vfplace.Spread ~sites ~vnics with
  | Ok l ->
    Alcotest.(check (list (pair int int))) "spread alternates NICs" [ (0, 0); (1, 0); (0, 1) ]
      (List.map (fun a -> (nic_of a, vf_of a)) l)
  | Error e -> Alcotest.fail e);
  match Fleet.Vfplace.pack Fleet.Vfplace.Packed ~sites ~vnics:(List.map vnic [ 1; 2; 3; 4; 5 ]) with
  | Ok _ -> Alcotest.fail "over-capacity demand must be refused"
  | Error e -> Alcotest.(check string) "capacity error names the numbers"
                 "demand 5 vNICs exceeds capacity 4 VF slots" e

let test_vfplace_per_nic_grouping () =
  match Fleet.Vfplace.pack Fleet.Vfplace.Spread ~sites ~vnics:(List.map vnic [ 1; 2; 3; 4 ]) with
  | Error e -> Alcotest.fail e
  | Ok l ->
    let groups = Fleet.Vfplace.per_nic l in
    Alcotest.(check (list int)) "NICs ascending" [ 0; 1 ] (List.map fst groups);
    List.iter
      (fun (_, assigns) ->
        Alcotest.(check (list int)) "VF ids ascending from 0" [ 0; 1 ] (List.map vf_of assigns))
      groups

let test_node_vf_accounting () =
  let vendor = Snic.Identity.make_vendor ~seed:7 ~name:"t" () in
  let node = Fleet.Node.boot ~vendor ~id:0 Fleet.Node.small in
  Alcotest.(check int) "small NIC exposes 256 VFs" 256 (Fleet.Node.vf_slots node);
  Alcotest.(check int) "none used" 0 (Fleet.Node.vf_used node);
  Alcotest.(check bool) "claims a slot" true (Fleet.Node.attach_vf node);
  Alcotest.(check int) "headroom shrinks" 255 (Fleet.Node.vf_headroom node);
  Fleet.Node.release_vf node;
  Alcotest.(check int) "release restores" 256 (Fleet.Node.vf_headroom node);
  (* Quarantine blocks new VFs, like NF admission. *)
  Fleet.Node.quarantine node;
  Alcotest.(check bool) "quarantined refuses" false (Fleet.Node.attach_vf node);
  Fleet.Node.unquarantine node;
  Alcotest.(check bool) "readmitted accepts" true (Fleet.Node.attach_vf node)

(* ---- scenario driver ---------------------------------------------- *)

let scenario ~nics ~vfs ~cycles ~seed =
  match Vf.Scenario.run ~nics ~vfs ~cycles ~seed () with
  | Ok r -> r
  | Error e -> Alcotest.fail (Vf.Scenario.error_to_string e)

let test_scenario_deterministic () =
  let go () = scenario ~nics:2 ~vfs:16 ~cycles:8 ~seed:7 in
  let a = go () and b = go () in
  Alcotest.(check string) "summaries byte-identical" (Vf.Scenario.summary a) (Vf.Scenario.summary b);
  Alcotest.(check int) "pkts equal" a.Vf.Scenario.total_pkts b.Vf.Scenario.total_pkts;
  Alcotest.(check bool) "work got done" true (a.Vf.Scenario.total_pkts > 0);
  Alcotest.(check int) "healthy run has no drops" 0 a.Vf.Scenario.total_drops

let test_scenario_weighted_shares_converge () =
  (* 32 rotations bound the stage-1 quantization error well under the
     5% acceptance bar (error ~ 1/cycles). *)
  let r = scenario ~nics:1 ~vfs:32 ~cycles:32 ~seed:42 in
  Alcotest.(check bool) "shares within 5% of weights" true (r.Vf.Scenario.max_rel_err <= 0.05);
  Alcotest.(check bool) "jain above the gate floor" true (r.Vf.Scenario.jain_min >= 0.95)

(* A clean run passes the fairness gates; a copy with one field pushed
   past its gate fails exactly that gate. *)
let test_scenario_check_gates () =
  let r = scenario ~nics:1 ~vfs:8 ~cycles:16 ~seed:42 in
  let check ?min_jain ?max_err_pct name want r' =
    Alcotest.(check (list string)) name want (Vf.Scenario.check ?min_jain ?max_err_pct r')
  in
  check "a small default run passes" [] r;
  check "jain" [ "jain 0.9000 below floor 0.9500" ] { r with Vf.Scenario.jain_min = 0.9 };
  check "share error" [ "share error 6.00% above ceiling 5.00%" ] { r with Vf.Scenario.max_rel_err = 0.06 };
  check ~min_jain:1.0 "explicit floor" [ "jain 0.9990 below floor 1.0000" ] { r with Vf.Scenario.jain_min = 0.999 };
  check ~max_err_pct:1.0 "explicit ceiling" [ "share error 2.00% above ceiling 1.00%" ]
    { r with Vf.Scenario.max_rel_err = 0.02 }

let suite =
  [
    Alcotest.test_case "attach/detach lifecycle" `Quick test_attach_detach_lifecycle;
    Alcotest.test_case "snic detach scrubs the window" `Quick test_snic_detach_scrubs_window;
    Alcotest.test_case "commodity detach leaves residue" `Quick test_commodity_detach_leaves_residue;
    Alcotest.test_case "tx quota is strictly per-VF" `Quick test_tx_quota_is_per_vf;
    Alcotest.test_case "rx quota bounded" `Quick test_rx_quota_bounded;
    Alcotest.test_case "detach drops queued descriptors" `Quick test_detach_drops_queued_descriptors;
    Alcotest.test_case "snic doorbell isolation" `Quick test_snic_doorbell_isolation;
    Alcotest.test_case "snic ring-read isolation + pattern" `Quick test_snic_queue_read_isolation_and_pattern;
    Alcotest.test_case "commodity cross-VF access succeeds" `Quick test_commodity_cross_vf_access_succeeds;
    Alcotest.test_case "jain index unit cases" `Quick test_jain_index_cases;
    Alcotest.test_case "vfplace packed/spread/capacity" `Quick test_vfplace_packed_and_spread;
    Alcotest.test_case "vfplace per-NIC grouping" `Quick test_vfplace_per_nic_grouping;
    Alcotest.test_case "node VF slot accounting" `Quick test_node_vf_accounting;
    Alcotest.test_case "scenario deterministic" `Quick test_scenario_deterministic;
    Alcotest.test_case "scenario check gates" `Quick test_scenario_check_gates;
    Alcotest.test_case "scenario weighted shares converge" `Slow test_scenario_weighted_shares_converge;
  ]

(* A NIC that cannot be brought up is a typed [Error], not an
   exception: the allocator holds 4096 windows, so VF 4096 cannot attach.
   The doorbell case is unreachable from scenario inputs (every window is
   owned by the NF that rings it), so only its message is pinned. *)
let test_scenario_bring_up_errors () =
  let out_of_windows nic = function
    | Error (Vf.Scenario.Attach_failed { nic = n; vf = 4096; reason = "out of NIC memory for the VF window" }) ->
      Alcotest.(check int) "failing NIC reported" nic n
    | Error e -> Alcotest.fail ("wrong error: " ^ Vf.Scenario.error_to_string e)
    | Ok _ -> Alcotest.fail "4097 VFs must not fit"
  in
  out_of_windows 3 (Vf.Scenario.run_nic ~nic:3 ~cycles:1 ~seed:1 ~vnics:(List.init 4097 (fun i -> (i + 1, 1))) ());
  out_of_windows 0 (Vf.Scenario.run ~nics:2 ~vfs:4097 ~cycles:1 ~seed:1 ());
  Alcotest.(check string) "attach message" "nic 3 vf 4096: attach failed: out of NIC memory for the VF window"
    (Vf.Scenario.error_to_string
       (Vf.Scenario.Attach_failed { nic = 3; vf = 4096; reason = "out of NIC memory for the VF window" }));
  Alcotest.(check string) "doorbell message" "nic 1 vf 2: doorbell failed: TLB fault at vaddr 0x10"
    (Vf.Scenario.error_to_string (Vf.Scenario.Doorbell_failed { nic = 1; vf = 2; fault = Nicsim.Machine.Tlb_fault 0x10 }))

let suite = suite @ [ Alcotest.test_case "scenario bring-up errors" `Quick test_scenario_bring_up_errors ]
