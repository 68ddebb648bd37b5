(* Packing tenant vNICs onto a rack's VF slots.

   Like [Place] for NFs, this is the operator's pure planning arithmetic
   — no machine state, fully deterministic — so a placement can be
   computed, audited, and replayed before any VF is actually attached.
   Two policies: [Packed] first-fit fills NICs in order (dense racks,
   easy drain), [Spread] round-robins over NICs with headroom (smooths
   the stage-1 scheduler load so no NIC serves disproportionately many
   tenants). *)

type vnic = { tenant : int; weight : int }
type site = { nic : int; slots : int }
type assignment = { nic : int; vf : int; tenant : int; weight : int }
type policy = Packed | Spread

let capacity sites = List.fold_left (fun a s -> a + s.slots) 0 sites

let pack policy ~sites ~vnics =
  let demand = List.length vnics in
  let total = capacity sites in
  if demand > total then
    Error (Printf.sprintf "demand %d vNICs exceeds capacity %d VF slots" demand total)
  else begin
    let arr = Array.of_list sites in
    let k = Array.length arr in
    let used = Array.make (max k 1) 0 in
    let cursor = ref 0 in
    let place (v : vnic) =
      let pick =
        match policy with
        | Packed ->
          (* First site with headroom, in the given order. *)
          let rec ff i = if used.(i) < arr.(i).slots then i else ff (i + 1) in
          ff 0
        | Spread ->
          (* Next site with headroom after the last one used. *)
          let rec rr i = if used.(i) < arr.(i).slots then i else rr ((i + 1) mod k) in
          let i = rr !cursor in
          cursor := (i + 1) mod k;
          i
      in
      let vf = used.(pick) in
      used.(pick) <- vf + 1;
      { nic = arr.(pick).nic; vf; tenant = v.tenant; weight = v.weight }
    in
    Ok (List.map place vnics)
  end

let per_nic assignments =
  (* Group by NIC, ascending; within a NIC, keep assignment order (VF
     ids are already ascending by construction). *)
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun a ->
      let l = try Hashtbl.find tbl a.nic with Not_found -> [] in
      Hashtbl.replace tbl a.nic (a :: l))
    assignments;
  let nics = Hashtbl.fold (fun nic _ acc -> nic :: acc) tbl [] in
  List.map (fun nic -> (nic, List.rev (Hashtbl.find tbl nic))) (List.sort compare nics)
