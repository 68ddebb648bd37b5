type mode = Shared | Soft | Hard | Secdcp
type result = Hit | Miss
type stats = { hits : int; misses : int; evicted_by_others : int }

(* Struct of arrays: line [set * ways + way] is [tags.(i)], [owners.(i)]
   (-1 = invalid) and [lru.(i)]. Nothing on the access path allocates. *)
type t = {
  sets : int;
  set_bits : int;
  ways : int;
  line_bits : int;
  mode : mode;
  domains : int;
  tags : int array;
  owners : int array;
  lru : int array;
  mutable clock : int;
  hits : int array;
  misses : int array;
  evicted : int array; (* evicted_by_others *)
  resident : int array; (* valid lines owned, per domain *)
  alloc : int array; (* ways per domain (Soft/Hard/Secdcp) *)
  fill_lo : int array; (* fill ways of domain d are [fill_lo.(d), fill_hi.(d)) *)
  fill_hi : int array;
  mutable os_hits_mark : int; (* domain-0 stats at the last rebalance *)
  mutable os_misses_mark : int;
  mutable sink : Obs.sink;
  mutable track : int;
}

(* Prefix-sum [alloc] into per-domain fill ranges; every domain fills
   anywhere in [Shared]. *)
let layout t =
  let lo = ref 0 in
  for d = 0 to t.domains - 1 do
    match t.mode with
    | Shared ->
      t.fill_lo.(d) <- 0;
      t.fill_hi.(d) <- t.ways
    | Soft | Hard | Secdcp ->
      t.fill_lo.(d) <- !lo;
      lo := !lo + t.alloc.(d);
      t.fill_hi.(d) <- !lo
  done

let create ~sets ~ways ~line_bits ~mode ~domains =
  if sets <= 0 || sets land (sets - 1) <> 0 then invalid_arg "Cache.create: sets must be a power of two";
  if ways <= 0 then invalid_arg "Cache.create: ways must be positive";
  if domains <= 0 then invalid_arg "Cache.create: domains must be positive";
  if mode <> Shared && ways < domains then invalid_arg "Cache.create: need at least one way per domain";
  if mode = Secdcp && domains < 2 then invalid_arg "Cache.create: Secdcp needs the OS plus at least one function";
  let set_bits = (let rec lg n = if n <= 1 then 0 else 1 + lg (n / 2) in lg sets) in
  let n = sets * ways in
  let t =
    {
      sets;
      set_bits;
      ways;
      line_bits;
      mode;
      domains;
      tags = Array.make n 0;
      owners = Array.make n (-1);
      lru = Array.make n 0;
      clock = 0;
      hits = Array.make domains 0;
      misses = Array.make domains 0;
      evicted = Array.make domains 0;
      resident = Array.make domains 0;
      (* Even initial split with leftovers to low domains. *)
      alloc = Array.init domains (fun d -> (ways / domains) + if d < ways mod domains then 1 else 0);
      fill_lo = Array.make domains 0;
      fill_hi = Array.make domains 0;
      os_hits_mark = 0;
      os_misses_mark = 0;
      sink = Obs.null;
      track = 0;
    }
  in
  layout t;
  t

let set_sink t sink ~track =
  t.sink <- sink;
  t.track <- track

let check_domain t domain msg = if domain < 0 || domain >= t.domains then invalid_arg msg

let fill_ways t ~domain =
  check_domain t domain "Cache.fill_ways: bad domain";
  (t.fill_lo.(domain), t.fill_hi.(domain))

let allocation t ~domain =
  check_domain t domain "Cache.allocation: bad domain";
  t.fill_hi.(domain) - t.fill_lo.(domain)

let access t ~domain ~addr =
  check_domain t domain "Cache.access: bad domain";
  t.clock <- t.clock + 1;
  let line_addr = addr lsr t.line_bits in
  let set = line_addr land (t.sets - 1) in
  let tag = line_addr lsr t.set_bits in
  let row = set * t.ways in
  (* Hits are confined to the domain's ways only under hard partitioning. *)
  let confined = match t.mode with Hard | Secdcp -> true | Shared | Soft -> false in
  let hit_hi = row + if confined then t.fill_hi.(domain) else t.ways in
  let i = ref (row + if confined then t.fill_lo.(domain) else 0) in
  while !i < hit_hi && not (t.owners.(!i) >= 0 && t.tags.(!i) = tag) do
    incr i
  done;
  if !i < hit_hi then begin
    t.lru.(!i) <- t.clock;
    t.hits.(domain) <- t.hits.(domain) + 1;
    Obs.count t.sink Obs.Cache_hit;
    Hit
  end
  else begin
    t.misses.(domain) <- t.misses.(domain) + 1;
    Obs.count t.sink Obs.Cache_miss;
    Obs.count t.sink Obs.Cache_fill;
    (* Fill the domain's first invalid way, else its least recently used. *)
    let lo = row + t.fill_lo.(domain) and hi = row + t.fill_hi.(domain) in
    let victim = ref lo in
    let j = ref lo in
    while !j < hi && t.owners.(!victim) >= 0 do
      if t.owners.(!j) < 0 || t.lru.(!j) < t.lru.(!victim) then victim := !j;
      incr j
    done;
    let v = !victim in
    let old = t.owners.(v) in
    if old >= 0 then begin
      t.resident.(old) <- t.resident.(old) - 1;
      if old <> domain then begin
        t.evicted.(old) <- t.evicted.(old) + 1;
        (* Cross-domain evictions are the cache side channel — worth a
           point event each, not just a count. *)
        Obs.count t.sink Obs.Cache_evict;
        Obs.instant t.sink ~ts:t.clock ~track:t.track Obs.Cache "cache_evict" ~arg:old
      end
    end;
    t.tags.(v) <- tag;
    t.owners.(v) <- domain;
    t.lru.(v) <- t.clock;
    t.resident.(domain) <- t.resident.(domain) + 1;
    Miss
  end

(* A domain's lines lie in its fill ways ([rebalance] flushes everything
   whenever those move), so only [Shared] needs to walk every way. The
   walk stops at the domain's last resident line. *)
let flush_domain t d =
  check_domain t d "Cache.flush_domain: bad domain";
  let lo = t.fill_lo.(d) and hi = t.fill_hi.(d) in
  let row = ref 0 in
  while t.resident.(d) > 0 && !row < Array.length t.owners do
    for i = !row + lo to !row + hi - 1 do
      if t.owners.(i) = d then begin
        t.owners.(i) <- -1;
        t.resident.(d) <- t.resident.(d) - 1
      end
    done;
    row := !row + t.ways
  done

let stats t ~domain =
  check_domain t domain "Cache.stats: bad domain";
  { hits = t.hits.(domain); misses = t.misses.(domain); evicted_by_others = t.evicted.(domain) }

let occupancy t ~domain =
  check_domain t domain "Cache.occupancy: bad domain";
  t.resident.(domain)

(* Move one way between domain 0 and a function by adjusting the
   allocation vector, then flush every line, because way indices shift
   meaning. Conservative but simple, and certainly leak-free. *)
let rebalance t =
  if t.mode <> Secdcp then invalid_arg "Cache.rebalance: only meaningful in Secdcp mode";
  let hits = t.hits.(0) - t.os_hits_mark and misses = t.misses.(0) - t.os_misses_mark in
  t.os_hits_mark <- t.hits.(0);
  t.os_misses_mark <- t.misses.(0);
  let total = hits + misses in
  if total = 0 then 0
  else begin
    let miss_rate = float_of_int misses /. float_of_int total in
    let moved = ref 0 in
    let donor () =
      (* Deterministic choice: the non-OS domain holding the most ways.
         Crucially this does not consult any function's cache behaviour. *)
      let best = ref 1 in
      for d = 2 to t.domains - 1 do
        if t.alloc.(d) > t.alloc.(!best) then best := d
      done;
      !best
    in
    let needy () =
      let best = ref 1 in
      for d = 2 to t.domains - 1 do
        if t.alloc.(d) < t.alloc.(!best) then best := d
      done;
      !best
    in
    if miss_rate > 0.5 then begin
      let d = donor () in
      if t.alloc.(d) > 1 then begin
        t.alloc.(d) <- t.alloc.(d) - 1;
        t.alloc.(0) <- t.alloc.(0) + 1;
        moved := 1
      end
    end
    else if miss_rate < 0.1 && t.alloc.(0) > 1 then begin
      let d = needy () in
      t.alloc.(0) <- t.alloc.(0) - 1;
      t.alloc.(d) <- t.alloc.(d) + 1;
      moved := 1
    end;
    if !moved > 0 then begin
      layout t;
      Array.fill t.owners 0 (Array.length t.owners) (-1);
      Array.fill t.resident 0 t.domains 0
    end;
    !moved
  end
