(* Jain's fairness index and weighted goodput-share reports.

   OSMOSIS frames multi-tenant SmartNIC fairness as per-tenant shares of
   the shared datapath; the standard scalar for "how equal is this
   allocation" is Jain's index (sum x)^2 / (n * sum x^2), which is 1 for
   a perfectly even split and 1/n when one party takes everything.  For
   weighted schedulers we normalize each party's goodput by its weight
   first, so a perfectly weight-proportional allocation also scores 1. *)

let jain = function
  | [] -> 1.
  | xs ->
    let n = float_of_int (List.length xs) in
    let s = List.fold_left ( +. ) 0. xs in
    let s2 = List.fold_left (fun a x -> a +. (x *. x)) 0. xs in
    if s2 <= 0. then 1. else s *. s /. (n *. s2)

type row = {
  id : int;
  value : float; (* raw goodput (bytes, packets...) *)
  weight : float;
  share : float; (* value / total value *)
  expected : float; (* weight / total weight *)
}

type report = {
  rows : row list;
  index : float; (* Jain's index over weight-normalized goodput *)
  max_rel_err : float; (* worst |share - expected| / expected *)
}

let weighted_report entries =
  let vsum = List.fold_left (fun a (_, v, _) -> a +. v) 0. entries in
  let wsum = List.fold_left (fun a (_, _, w) -> a +. w) 0. entries in
  let rows =
    List.map
      (fun (id, value, weight) ->
        {
          id;
          value;
          weight;
          share = (if vsum > 0. then value /. vsum else 0.);
          expected = (if wsum > 0. then weight /. wsum else 0.);
        })
      entries
  in
  let index = jain (List.map (fun (_, v, w) -> if w > 0. then v /. w else 0.) entries) in
  let max_rel_err =
    List.fold_left
      (fun acc r -> if r.expected > 0. then Float.max acc (Float.abs (r.share -. r.expected) /. r.expected) else acc)
      0. rows
  in
  { rows; index; max_rel_err }

(* Latency fairness: latency is lower-is-better, so we score the
   *service rate* 1/p99 — equal tail latencies give index 1, one tenant
   stuck behind a noisy neighbor drags it toward 1/n.  The weighted
   variant expects a weight-w tenant to see a tail ~w times shorter
   (gap ∝ 1/weight under weighted round-robin), i.e. rate/weight equal
   across tenants — exactly weighted_report over (id, 1/p99, weight). *)

let inv_latency p = if p > 0. then 1. /. p else 0.

let latency_weighted_report entries =
  weighted_report (List.map (fun (id, p99, w) -> (id, inv_latency p99, w)) entries)

let summary r =
  let b = Buffer.create 256 in
  Buffer.add_string b "  id   weight      goodput    share  expected\n";
  List.iter
    (fun row ->
      Buffer.add_string b
        (Printf.sprintf "%4d %8g %12.0f %8.4f %9.4f\n" row.id row.weight row.value row.share
           row.expected))
    r.rows;
  Buffer.add_string b
    (Printf.sprintf "  jain=%.4f max-rel-err=%.2f%% (%d parties)\n" r.index (100. *. r.max_rel_err)
       (List.length r.rows));
  Buffer.contents b
