type row = { name : string; prealloc_mb : float; used_mb : float; mur_pct : float }

let mbf bytes = float_of_int bytes /. (1024. *. 1024.)

(* Calibrated model parameters (see DESIGN.md): a NAT translation entry
   carries the 5-tuple key, the rewritten endpoint and reverse-path
   bookkeeping, over a steady DPDK base. *)
let nat_entry_bytes = 194
let nat_base_mb = 4.0

let fixed p = p.Profiles.text_mb +. p.Profiles.data_mb +. p.Profiles.code_mb

let row_of name ~used_mb =
  let p = Profiles.find name in
  let prealloc_mb = Profiles.total_mb p in
  { name; prealloc_mb; used_mb; mur_pct = 100. *. used_mb /. prealloc_mb }

let table8 () =
  (* FW, DPI, LPM preallocate bounded structures: used = preallocated. *)
  let exact name =
    let p = Profiles.find name in
    row_of name ~used_mb:(Profiles.total_mb p)
  in
  (* NAT: steady = fixed + DPDK base + one 65,535-flow table; the
     preallocation additionally covers the final doubling transient. *)
  let nat =
    let p = Profiles.find "NAT" in
    let used = fixed p +. nat_base_mb +. mbf (Hashmap_model.bytes ~entry_bytes:nat_entry_bytes 65_535) in
    row_of "NAT" ~used_mb:used
  in
  (* LB: tiny steady state (Maglev table + descriptors); the rest of the
     preallocation covers DPDK's temporary initialization block. *)
  let lb = row_of "LB" ~used_mb:4.16 in
  (* Monitor: from the Figure 7 timeline model. *)
  let mon =
    let series = Timeline.monitor () in
    row_of "Mon" ~used_mb:(Timeline.final_mb series)
  in
  (* CKF / SYNP preallocate a fixed cuckoo-filter reservation that is
     fully used by design (§4.8): used = preallocated, MUR 100%. *)
  [ exact "FW"; exact "DPI"; nat; lb; exact "LPM"; mon; exact "CKF"; exact "SYNP" ]

let find name =
  match List.find_opt (fun r -> String.equal r.name name) (table8 ()) with
  | Some r -> r
  | None -> invalid_arg ("Memprof.Mur.find: unknown NF " ^ name)
