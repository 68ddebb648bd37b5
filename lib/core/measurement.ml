let start () = Crypto.Sha256.init ()

let field ctx tag payload =
  Crypto.Sha256.feed ctx (Printf.sprintf "%s:%d:" tag (String.length payload));
  Crypto.Sha256.feed ctx payload

let record_image ctx image = field ctx "image" image
let record_cores ctx cores = field ctx "cores" (String.concat "," (List.map string_of_int cores))
let record_memory ctx ~base ~len = field ctx "mem" (Printf.sprintf "%x+%x" base len)

let opt f = function None -> "*" | Some v -> f v
let prefix_str (p, l) = Printf.sprintf "%s/%d" (Net.Ipv4_addr.to_string p) l

let record_rule ctx (r : Nicsim.Pktio.rule_match) =
  field ctx "rule"
    (String.concat "|"
       [
         opt prefix_str r.src_prefix;
         opt prefix_str r.dst_prefix;
         opt string_of_int r.proto;
         opt string_of_int r.src_port;
         opt string_of_int r.dst_port;
         opt string_of_int r.vni;
       ])

let record_accel ctx ~kind ~clusters =
  field ctx "accel" (Printf.sprintf "%s:%d" (Nicsim.Accel.kind_name kind) clusters)

let record_vpp ctx ~rx_bytes ~tx_bytes ~sched =
  field ctx "vpp" (Printf.sprintf "%d/%d/%s" rx_bytes tx_bytes (Nicsim.Sched.policy_name sched))

let finish = Crypto.Sha256.finalize

let of_config ~image ~cores ~mem_base ~mem_len ~rules ~accels ~rx_bytes ~tx_bytes ~sched =
  let m = start () in
  record_image m image;
  record_cores m cores;
  record_memory m ~base:mem_base ~len:mem_len;
  List.iter (record_rule m) rules;
  List.iter (fun (kind, clusters) -> record_accel m ~kind ~clusters) accels;
  record_vpp m ~rx_bytes ~tx_bytes ~sched;
  finish m
