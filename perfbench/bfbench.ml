(* One round of one workload: set-up, warm-up, idle phase, flip,
   migration phase, backfill and finalize, then the correctness check.
   Prints the round's measurements as one JSON line; perfbench/run.py
   runs rounds until the run's time is up and aggregates them.

     bfbench.exe --workload tpcc-split --seed 1 --trace 0 --round 0 --out DIR *)

let workloads =
  [
    ("tpcc-split", fun ~seed -> Tpcc_split.run ~seed);
    ("kv-wire-cluster", fun ~seed -> Kv_wire.run ~seed);
    ("kv-rollback", fun ~seed -> Kv_rollback.run ~seed);
  ]

let () =
  let workload = ref "" and seed = ref 1 and trace = ref 0 and round = ref 0 in
  let out = ref ".perfbench_out" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " one of: tpcc-split, kv-wire-cluster, kv-rollback");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--trace", Arg.Set_int trace, " 1 = traced run (spans and per-layer metrics)");
      ( "--round",
        Arg.Set_int round,
        " round number within the run (labels the spans; in round 0 the \
         in-process workloads also run the never-migrated replay)" );
      ("--out", Arg.Set_string out, " directory for the spans file and the flight recorder");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bfbench.exe --workload NAME --seed N --trace 0|1";
  let run =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None ->
        prerr_endline ("unknown workload: " ^ !workload);
        exit 2
  in
  if not (Sys.file_exists !out) then Sys.mkdir !out 0o755;
  Obs.Flight.set_path (Filename.concat !out "flight.dump");
  let traced = !trace = 1 in
  if traced then begin
    Obs.Counters.set_enabled true;
    Common.Spans.on := true
  end;
  let r, check = run ~seed:!seed in
  (* The in-process workloads repeat one computation every round, so the
     replay against a never-migrated database runs in a run's first round
     only; the in-round checks run in every round. *)
  let correct, msg =
    match check ~full:(!round = 0) with
    | () -> (true, "ok")
    | exception Common.Check_failed m -> (false, m)
    | exception e -> (false, "check raised " ^ Printexc.to_string e)
  in
  if traced then
    Common.Spans.write ~round:!round
      (Filename.concat !out (Printf.sprintf "spans-%s-%d.jsonl" !workload !seed));
  print_endline
    (Common.json_round ~workload:!workload ~seed:!seed ~traced ~correct ~check_msg:msg r)
