type site =
  | Dma_error
  | Dma_stall
  | Dma_corrupt
  | Accel_hang
  | Accel_garbage
  | Rx_drop
  | Rx_corrupt
  | Tx_drop
  | Bus_timeout
  | Dram_flip

let all_sites =
  [ Dma_error; Dma_stall; Dma_corrupt; Accel_hang; Accel_garbage; Rx_drop; Rx_corrupt; Tx_drop; Bus_timeout; Dram_flip ]

let site_name = function
  | Dma_error -> "dma-error"
  | Dma_stall -> "dma-stall"
  | Dma_corrupt -> "dma-corrupt"
  | Accel_hang -> "accel-hang"
  | Accel_garbage -> "accel-garbage"
  | Rx_drop -> "rx-drop"
  | Rx_corrupt -> "rx-corrupt"
  | Tx_drop -> "tx-drop"
  | Bus_timeout -> "bus-timeout"
  | Dram_flip -> "dram-flip"

let site_index = function
  | Dma_error -> 0
  | Dma_stall -> 1
  | Dma_corrupt -> 2
  | Accel_hang -> 3
  | Accel_garbage -> 4
  | Rx_drop -> 5
  | Rx_corrupt -> 6
  | Tx_drop -> 7
  | Bus_timeout -> 8
  | Dram_flip -> 9

type fault_event = { seq : int; device : string; site : site; detail : string }

let event_to_string ev = Printf.sprintf "#%04d %s %s: %s" ev.seq ev.device (site_name ev.site) ev.detail

type rates = {
  dma_error : float;
  dma_stall : float;
  dma_corrupt : float;
  accel_hang : float;
  accel_garbage : float;
  rx_drop : float;
  rx_corrupt : float;
  tx_drop : float;
  bus_timeout : float;
  dram_flip : float;
}

let none =
  {
    dma_error = 0.;
    dma_stall = 0.;
    dma_corrupt = 0.;
    accel_hang = 0.;
    accel_garbage = 0.;
    rx_drop = 0.;
    rx_corrupt = 0.;
    tx_drop = 0.;
    bus_timeout = 0.;
    dram_flip = 0.;
  }

let storm ?(intensity = 1.0) () =
  let s r = min 1.0 (r *. intensity) in
  {
    dma_error = s 0.02;
    dma_stall = s 0.03;
    dma_corrupt = s 0.015;
    accel_hang = s 0.01;
    accel_garbage = s 0.02;
    rx_drop = s 0.03;
    rx_corrupt = s 0.02;
    tx_drop = s 0.02;
    bus_timeout = s 0.02;
    dram_flip = s 0.01;
  }

let rate rates = function
  | Dma_error -> rates.dma_error
  | Dma_stall -> rates.dma_stall
  | Dma_corrupt -> rates.dma_corrupt
  | Accel_hang -> rates.accel_hang
  | Accel_garbage -> rates.accel_garbage
  | Rx_drop -> rates.rx_drop
  | Rx_corrupt -> rates.rx_corrupt
  | Tx_drop -> rates.tx_drop
  | Bus_timeout -> rates.bus_timeout
  | Dram_flip -> rates.dram_flip

type t = {
  plan_rates : rates;
  mutable state : int; (* SplitMix-style stream, 62-bit arithmetic *)
  mutable seq : int;
  mutable events : fault_event list; (* reverse firing order *)
  counts : int array; (* indexed by site_index *)
}

let plan ~seed rates =
  {
    plan_rates = rates;
    state = (seed * 0x3C79AC492BA7B653) land max_int;
    seq = 0;
    events = [];
    counts = Array.make (List.length all_sites) 0;
  }

(* 62-bit-safe SplitMix64-style mixer (same trick as lib/trace/rng.ml),
   so the arithmetic is identical on every OCaml int width. *)
let gamma = 0x1E3779B97F4A7C15

let next_int t =
  t.state <- (t.state + gamma) land max_int;
  let z = t.state in
  let z = (z lxor (z lsr 30)) * 0x2545F4914F6CDD1D in
  let z = (z lxor (z lsr 27)) * 0x1B873593CC9E2D51 in
  (z lxor (z lsr 31)) land max_int

let next_float t = float_of_int (next_int t land ((1 lsl 53) - 1)) /. float_of_int (1 lsl 53)

let roll t site =
  let r = rate t.plan_rates site in
  if r <= 0.0 then false else next_float t < r

let draw_int t bound = if bound <= 1 then 0 else next_int t mod bound

let record t ~device site ~detail =
  let ev = { seq = t.seq; device; site; detail } in
  t.seq <- t.seq + 1;
  t.events <- ev :: t.events;
  t.counts.(site_index site) <- t.counts.(site_index site) + 1;
  ev

let fire t ~device site ~detail = if roll t site then Some (record t ~device site ~detail) else None

let log t = List.rev t.events
let count t site = t.counts.(site_index site)
let total t = t.seq

let log_to_string t =
  let buf = Buffer.create 256 in
  List.iter
    (fun ev ->
      Buffer.add_string buf (event_to_string ev);
      Buffer.add_char buf '\n')
    (log t);
  Buffer.contents buf
