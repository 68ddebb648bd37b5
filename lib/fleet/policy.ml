type t = First_fit | Best_fit | Spread | Tco_aware

let all = [ First_fit; Best_fit; Spread; Tco_aware ]

let name = function
  | First_fit -> "first-fit"
  | Best_fit -> "best-fit"
  | Spread -> "spread"
  | Tco_aware -> "tco-aware"

let of_string s =
  match String.lowercase_ascii s with
  | "first-fit" | "first_fit" | "ff" -> Ok First_fit
  | "best-fit" | "best_fit" | "bf" -> Ok Best_fit
  | "spread" -> Ok Spread
  | "tco-aware" | "tco_aware" | "tco" -> Ok Tco_aware
  | _ -> Error (Printf.sprintf "unknown policy %S (want first-fit|best-fit|spread|tco-aware)" s)

(* The modeled 3-year cost of powering on an idle NIC of [shape]
   (per-core S-NIC TCO x cores) — what [Tco_aware] minimizes. *)
let activation_cost (shape : Node.shape) =
  Costmodel.Tco.tco_per_core (Costmodel.Tco.snic_variant Costmodel.Tco.liquidio) *. float_of_int shape.Node.cores

let candidates nodes demand = Array.to_list nodes |> List.filter (fun n -> Node.admits n demand)

(* [argmin score nodes] — lowest score wins; candidates arrive in id
   order, so the first minimum is also the lowest-id minimum. *)
let argmin score = function
  | [] -> None
  | n :: rest -> Some (List.fold_left (fun best n -> if score n < score best then n else best) n rest)

let choose t nodes demand =
  let fits = candidates nodes demand in
  match t with
  | First_fit -> (match fits with [] -> None | n :: _ -> Some n)
  | Best_fit -> argmin (fun n -> Node.mem_headroom n - demand.Workload.mem_bytes) fits
  | Spread -> argmin (fun n -> Node.nf_count n) fits
  | Tco_aware -> (
    let active, idle = List.partition (fun n -> Node.nf_count n > 0) fits in
    match argmin (fun n -> (Node.shape n).Node.tlb_budget_per_core - Node.entries_for n demand) active with
    | Some n -> Some n
    | None -> argmin (fun n -> activation_cost (Node.shape n)) idle)
