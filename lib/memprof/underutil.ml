type policy = Static_peak | Elastic of { instance_mb : float } | Dynamic

let policy_name = function
  | Static_peak -> "static peak provisioning"
  | Elastic { instance_mb } -> Printf.sprintf "elastic %.0fMB instances" instance_mb
  | Dynamic -> "dynamic (insecure baseline)"

type point = { t_h : float; demand_mb : float; provisioned_mb : float }

(* One day at 15-minute samples against a 360 MB peak. *)
let hours = 24.
let peak_mb = 360.
let samples_per_hour = 4

(* Diurnal curve: 30% floor, sinusoidal peak at 18:00. *)
let demand_at t_h =
  let phase = 2. *. Float.pi *. (t_h -. 6.) /. 24. in
  peak_mb *. (0.3 +. (0.7 *. 0.5 *. (1. +. Float.sin phase)))

let provisioned policy demand =
  match policy with
  | Static_peak -> peak_mb
  | Dynamic -> demand
  | Elastic { instance_mb } ->
    let n = int_of_float (Float.ceil (demand /. instance_mb)) in
    float_of_int (max 1 n) *. instance_mb

let simulate policy =
  let n = int_of_float (hours *. float_of_int samples_per_hour) in
  List.init (n + 1) (fun i ->
      let t_h = float_of_int i /. float_of_int samples_per_hour in
      let demand_mb = demand_at t_h in
      { t_h; demand_mb; provisioned_mb = provisioned policy demand_mb })

let avg_utilization points =
  match points with
  | [] -> 0.
  | _ ->
    List.fold_left (fun acc p -> acc +. (p.demand_mb /. p.provisioned_mb)) 0. points
    /. float_of_int (List.length points)

let churn points policy =
  match policy with
  | Static_peak | Dynamic -> 0
  | Elastic { instance_mb } ->
    let instances p = int_of_float (Float.ceil (p.demand_mb /. instance_mb)) in
    let rec go acc = function
      | a :: (b :: _ as rest) -> go (acc + abs (instances b - instances a)) rest
      | _ -> acc
    in
    go 0 points
