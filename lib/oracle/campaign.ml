type report = {
  mode : Nicsim.Machine.mode;
  seed : int option;
  ops : int;
  executed : int;
  skipped : int;
  violations : Refmodel.violation list;
}

let default_slots = 6

let gen_ops ?(fabric = false) ~slots ~ops ~seed () =
  let rng = Trace.Rng.create ~seed in
  List.init ops (fun _ -> Op.gen ~fabric rng ~slots)

let gen_ops_array ~slots ~ops ~seed () = Array.of_list (gen_ops ~slots ~ops ~seed ())

(* One harness bounds check per 512 ops instead of one list cell per op;
   the interpretation itself is unchanged (Harness.step_batch is step in
   a loop), so reports are byte-identical to the per-op path. *)
let batch_size = 512

let replay_array ?(slots = default_slots) ~mode ops =
  let h = Harness.create ~mode ~slots in
  Par.Batch.iter_slices ~batch:batch_size ~len:(Array.length ops) (fun ~pos ~len ->
      Harness.step_batch h ops ~pos ~len);
  {
    mode;
    seed = None;
    ops = Array.length ops;
    executed = Harness.executed h;
    skipped = Harness.skipped h;
    violations = Harness.violations h;
  }

let replay ?slots ~mode ops = replay_array ?slots ~mode (Array.of_list ops)

let run ?(slots = default_slots) ?fabric ~mode ~ops ~seed () =
  let r = replay_array ~slots ~mode (Array.of_list (gen_ops ?fabric ~slots ~ops ~seed ())) in
  { r with seed = Some seed }

let run_sharded ?domains ?(slots = default_slots) ?fabric ~mode ~ops ~seed ~shards () =
  Par.Engine.map_seeded ?domains ~seed ~shards (fun ~shard:_ ~seed ->
      run ~slots ?fabric ~mode ~ops ~seed ())

let counts r =
  List.map
    (fun cls -> (cls, List.length (List.filter (fun (v : Refmodel.violation) -> v.cls = cls) r.violations)))
    Refmodel.all_classes

let to_string r =
  let b = Buffer.create 512 in
  Buffer.add_string b (Printf.sprintf "mode: %s (%s)\n" (Nicsim.Machine.mode_name r.mode) (Nicsim.Machine.mode_id r.mode));
  (match r.seed with
  | Some s -> Buffer.add_string b (Printf.sprintf "seed: %d\n" s)
  | None -> Buffer.add_string b "seed: - (explicit trace)\n");
  Buffer.add_string b (Printf.sprintf "ops: %d (executed %d, skipped %d)\n" r.ops r.executed r.skipped);
  Buffer.add_string b (Printf.sprintf "violations: %d\n" (List.length r.violations));
  List.iter
    (fun (cls, n) ->
      if n > 0 then begin
        let first = List.find (fun (v : Refmodel.violation) -> v.cls = cls) r.violations in
        Buffer.add_string b
          (Printf.sprintf "  %-18s %6d  first at step %d: %s\n" (Refmodel.cls_to_string cls) n first.step
             (Op.to_line first.op))
      end)
    (counts r);
  Buffer.contents b

(* ---- trace files --------------------------------------------------- *)

let trace_to_string ~mode ~slots ops =
  let b = Buffer.create 1024 in
  Buffer.add_string b "# snic-oracle-trace v1\n";
  Buffer.add_string b (Printf.sprintf "mode %s\n" (Nicsim.Machine.mode_id mode));
  Buffer.add_string b (Printf.sprintf "slots %d\n" slots);
  List.iter (fun op -> Buffer.add_string b (Op.to_line op ^ "\n")) ops;
  Buffer.contents b

let trace_of_string s =
  let lines = String.split_on_char '\n' s in
  let rec go lineno ~mode ~slots acc = function
    | [] -> (
      match mode with
      | None -> Error "trace has no \"mode <id>\" directive"
      | Some m -> Ok (m, Option.value slots ~default:default_slots, List.rev acc))
    | line :: rest ->
      let trimmed = String.trim line in
      if trimmed = "" || trimmed.[0] = '#' then go (lineno + 1) ~mode ~slots acc rest
      else begin
        match String.split_on_char ' ' trimmed with
        | [ "mode"; id ] -> (
          match Nicsim.Machine.mode_of_id id with
          | Some m -> go (lineno + 1) ~mode:(Some m) ~slots acc rest
          | None -> Error (Printf.sprintf "line %d: unknown mode %S" lineno id))
        | [ "slots"; n ] -> (
          match int_of_string_opt n with
          | Some k when k >= 1 && k <= 8 -> go (lineno + 1) ~mode ~slots:(Some k) acc rest
          | _ -> Error (Printf.sprintf "line %d: slots must be an integer in 1..8" lineno))
        | _ -> (
          match mode with
          | None -> Error (Printf.sprintf "line %d: expected \"mode <id>\" before ops" lineno)
          | Some _ -> (
            match Op.of_line trimmed with
            | Ok op -> go (lineno + 1) ~mode ~slots (op :: acc) rest
            | Error e -> Error (Printf.sprintf "line %d: %s" lineno e)))
      end
  in
  go 1 ~mode:None ~slots:None [] lines
