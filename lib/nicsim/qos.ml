(* Per-tenant credit arbiter over the shared Bus / Dma / Accel.

   The scheme, per resource, per epoch:

   - every registered tenant is entitled to [guarantee] credits;
     registration rejects over-subscription (sum of guarantees must fit
     the capacity), so a request inside the guarantee is granted
     unconditionally;
   - beyond its guarantee a tenant may borrow, but only from credit
     nobody else is still entitled to: the borrow condition reserves
     every other tenant's unreached guarantee, which is what makes the
     always-grant invariant above sound even after heavy borrowing;
   - unused guaranteed credit is donated to the next epoch's slack pool
     (clamped at one epoch's capacity) — work conservation: idle credit
     moves to whoever wants it, it is not destroyed.

   Everything is integer credits and deterministic; no randomness, no
   wall clock. *)

type resource = Bus | Dma | Accel

let n_resources = 3
let rix = function Bus -> 0 | Dma -> 1 | Accel -> 2
let resource_name = function Bus -> "bus" | Dma -> "dma" | Accel -> "accel"

type share = { guarantee : int; cap : int }

type limits = {
  bus : share;
  dma : share;
  accel : share;
  slo : int option;
}

let flat ~guarantee ~cap ?slo () =
  let s = { guarantee; cap } in
  { bus = s; dma = s; accel = s; slo }

type config = {
  epoch : int;
  bus_capacity : int;
  dma_capacity : int;
  accel_capacity : int;
}

type tstate = {
  limits : limits;
  used : int array; (* credits consumed this epoch, per resource *)
  granted : int array; (* cumulative credits granted, per resource *)
  mutable grants : int;
  mutable throttles : int;
  mutable borrows : int;
  mutable borrowed_credits : int;
  mutable lat_samples : float list;
  mutable n_samples : int;
  mutable slo_violations : int;
}

type t = {
  config : config;
  tenants : (int, tstate) Hashtbl.t;
  mutable epoch_idx : int;
  used_total : int array; (* credits granted this epoch, per resource *)
  reserved : int array; (* sum of registered guarantees, per resource *)
  slack : int array; (* credit donated into the current epoch *)
  mutable sink : Obs.sink;
  mutable track_base : int;
}

let capacity t r =
  match r with
  | Bus -> t.config.bus_capacity
  | Dma -> t.config.dma_capacity
  | Accel -> t.config.accel_capacity

let create config =
  if config.epoch <= 0 then invalid_arg "Qos.create: epoch must be positive";
  if config.bus_capacity <= 0 || config.dma_capacity <= 0 || config.accel_capacity <= 0 then
    invalid_arg "Qos.create: capacities must be positive";
  {
    config;
    tenants = Hashtbl.create 16;
    epoch_idx = 0;
    used_total = Array.make n_resources 0;
    reserved = Array.make n_resources 0;
    slack = Array.make n_resources 0;
    sink = Obs.null;
    track_base = 0;
  }

let set_sink t sink ~track_base =
  t.sink <- sink;
  t.track_base <- track_base;
  Obs.name_track sink ~track:track_base "qos bus";
  Obs.name_track sink ~track:(track_base + 1) "qos dma";
  Obs.name_track sink ~track:(track_base + 2) "qos accel"

let share_of ts r =
  match r with Bus -> ts.limits.bus | Dma -> ts.limits.dma | Accel -> ts.limits.accel

let register t ~tenant limits =
  let check name (s : share) =
    if s.guarantee < 0 then invalid_arg (Printf.sprintf "Qos.register: negative %s guarantee" name);
    if s.cap < s.guarantee then invalid_arg (Printf.sprintf "Qos.register: %s cap below guarantee" name)
  in
  check "bus" limits.bus;
  check "dma" limits.dma;
  check "accel" limits.accel;
  (match limits.slo with
  | Some s when s <= 0 -> invalid_arg "Qos.register: SLO must be positive"
  | _ -> ());
  (* Replacing a contract first returns the old guarantees to the pool. *)
  (match Hashtbl.find_opt t.tenants tenant with
  | Some old ->
    List.iter (fun r -> t.reserved.(rix r) <- t.reserved.(rix r) - (share_of old r).guarantee) [ Bus; Dma; Accel ]
  | None -> ());
  let over r g = t.reserved.(rix r) + g > capacity t r in
  if over Bus limits.bus.guarantee || over Dma limits.dma.guarantee || over Accel limits.accel.guarantee
  then begin
    (* Restore the old reservation before raising. *)
    (match Hashtbl.find_opt t.tenants tenant with
    | Some old ->
      List.iter (fun r -> t.reserved.(rix r) <- t.reserved.(rix r) + (share_of old r).guarantee) [ Bus; Dma; Accel ]
    | None -> ());
    invalid_arg "Qos.register: guarantees over-subscribe a resource"
  end;
  t.reserved.(0) <- t.reserved.(0) + limits.bus.guarantee;
  t.reserved.(1) <- t.reserved.(1) + limits.dma.guarantee;
  t.reserved.(2) <- t.reserved.(2) + limits.accel.guarantee;
  Hashtbl.replace t.tenants tenant
    {
      limits;
      used = Array.make n_resources 0;
      granted = Array.make n_resources 0;
      grants = 0;
      throttles = 0;
      borrows = 0;
      borrowed_credits = 0;
      lat_samples = [];
      n_samples = 0;
      slo_violations = 0;
    }

let registered t ~tenant = Hashtbl.mem t.tenants tenant
let tenants t = List.sort compare (Hashtbl.fold (fun id _ acc -> id :: acc) t.tenants [])

let find t tenant =
  match Hashtbl.find_opt t.tenants tenant with
  | Some ts -> ts
  | None -> invalid_arg (Printf.sprintf "Qos: tenant %d not registered" tenant)

(* Roll epoch state forward to the epoch containing [now].  Unused
   guaranteed credit becomes next-epoch slack, clamped at one epoch's
   capacity so donation cannot accumulate without bound. *)
let sync t ~now =
  let e = now / t.config.epoch in
  if e > t.epoch_idx then begin
    for r = 0 to n_resources - 1 do
      let donated = ref 0 in
      Hashtbl.iter
        (fun _ ts ->
          let g = (share_of ts (match r with 0 -> Bus | 1 -> Dma | _ -> Accel)).guarantee in
          if ts.used.(r) < g then donated := !donated + (g - ts.used.(r));
          ts.used.(r) <- 0)
        t.tenants;
      let cap =
        match r with 0 -> t.config.bus_capacity | 1 -> t.config.dma_capacity | _ -> t.config.accel_capacity
      in
      t.slack.(r) <- min cap !donated;
      t.used_total.(r) <- 0
    done;
    t.epoch_idx <- e
  end

type throttle = { tenant : int; resource : resource; until : int }
type verdict = Granted | Throttled of throttle

(* Credit still reserved for other tenants' unreached guarantees. *)
let reserved_others t ~tenant r =
  let acc = ref 0 in
  Hashtbl.iter
    (fun id ts ->
      if id <> tenant then begin
        let g = (share_of ts r).guarantee in
        if ts.used.(rix r) < g then acc := !acc + (g - ts.used.(rix r))
      end)
    t.tenants;
  !acc

let refuse t ts ~tenant ~resource ~now =
  ts.throttles <- ts.throttles + 1;
  let until = (t.epoch_idx + 1) * t.config.epoch in
  Obs.count t.sink Obs.Qos_throttle;
  Obs.instant t.sink ~ts:now ~track:(t.track_base + rix resource) Obs.Qos "qos_throttle" ~arg:tenant;
  Throttled { tenant; resource; until }

let admit t ~tenant ~resource ~cost ~now =
  if cost <= 0 then invalid_arg "Qos.admit: cost must be positive";
  sync t ~now;
  let ts = find t tenant in
  let r = rix resource in
  let { guarantee; cap } = share_of ts resource in
  let grant ~borrowed =
    ts.used.(r) <- ts.used.(r) + cost;
    ts.granted.(r) <- ts.granted.(r) + cost;
    t.used_total.(r) <- t.used_total.(r) + cost;
    ts.grants <- ts.grants + 1;
    Obs.count t.sink Obs.Qos_grant;
    if borrowed > 0 then begin
      ts.borrows <- ts.borrows + 1;
      ts.borrowed_credits <- ts.borrowed_credits + borrowed;
      Obs.count t.sink Obs.Qos_borrow
    end;
    Granted
  in
  if ts.used.(r) + cost > cap then refuse t ts ~tenant ~resource ~now
  else if ts.used.(r) + cost <= guarantee then grant ~borrowed:0
  else begin
    let others = reserved_others t ~tenant resource in
    if t.used_total.(r) + cost + others <= capacity t resource + t.slack.(r) then
      grant ~borrowed:(ts.used.(r) + cost - max ts.used.(r) guarantee)
    else refuse t ts ~tenant ~resource ~now
  end

let epoch_granted t ~resource = t.used_total.(rix resource)
let epoch_slack t ~resource = t.slack.(rix resource)

(* ---------------- latency / SLO accounting ----------------------- *)

let note_latency t ~tenant ~cycles =
  let ts = find t tenant in
  ts.lat_samples <- float_of_int cycles :: ts.lat_samples;
  ts.n_samples <- ts.n_samples + 1;
  Obs.observe t.sink "qos_latency_cycles" (float_of_int cycles);
  match ts.limits.slo with
  | Some slo when cycles > slo ->
    ts.slo_violations <- ts.slo_violations + 1;
    Obs.count t.sink Obs.Slo_violation
  | _ -> ()

let latency_quantile t ~tenant ~q =
  let ts = find t tenant in
  Obs.Metrics.quantile_of_samples ts.lat_samples q

type tenant_stats = {
  grants : int;
  throttles : int;
  borrows : int;
  borrowed_credits : int;
  granted_bus : int;
  granted_dma : int;
  granted_accel : int;
  samples : int;
  slo_violations : int;
}

let stats t ~tenant =
  let ts = find t tenant in
  {
    grants = ts.grants;
    throttles = ts.throttles;
    borrows = ts.borrows;
    borrowed_credits = ts.borrowed_credits;
    granted_bus = ts.granted.(0);
    granted_dma = ts.granted.(1);
    granted_accel = ts.granted.(2);
    samples = ts.n_samples;
    slo_violations = ts.slo_violations;
  }

let granted_credits t ~tenant ~resource = (find t tenant).granted.(rix resource)

(* ---------------- fronting wrappers ------------------------------ *)

let bus_request t ~bus ~tenant ~client ~now ~cost =
  match admit t ~tenant ~resource:Bus ~cost ~now with
  | Throttled thr -> Error thr
  | Granted ->
    let completion = Bus.request bus ~client ~now ~cost in
    note_latency t ~tenant ~cycles:(completion - now);
    Ok completion

let dma_transfer t ~dma ~tenant ~now ~checked ~bank ~direction ~nic_addr ~host_addr ~len =
  match admit t ~tenant ~resource:Dma ~cost:len ~now with
  | Throttled thr -> Error thr
  | Granted -> Ok (Dma.transfer ~checked dma ~bank ~direction ~nic_addr ~host_addr ~len)

let accel_cost accel ~bytes =
  let kind = Accel.kind accel in
  Accel.overhead_cycles kind
  + int_of_float (ceil (float_of_int bytes *. Accel.cycles_per_byte kind))
