(* kv-rollback: the kv mix in-process on a single-node Lazy_db, with $n
   parameters so the statement cache always hits.  The forward split is
   flipped, the migration phase runs part way, then
   Lazy_db.rollback_migration flips back and the rest of the phase reads
   and writes the restored table while the backward migration and the
   stale-row purges drain.  The only workload on the rollback path. *)

open Bullfrog_db
open Common
module Lazy_db = Bullfrog_core.Lazy_db
module Migrate_exec = Bullfrog_core.Migrate_exec

let rows = 100_000
let warmup_n = 2_000
let idle_n = 100_000
let mig_n = 30_000

(* The first [forward_n] operations of the migration phase run on the new
   tables; the rollback flips back before the rest. *)
let forward_n = 20_000

(* One background batch of [bg_batch] granules after every [bg_every]
   client operations. *)
let bg_every = 50
let bg_batch = 50
let sample_every = 100

(* Cross-shard pairs are drawn as on a 4-shard cluster, so the two kv
   workloads run the same kind of mix. *)
let shard_of =
  let part = Bullfrog_cluster.Partition.hash ~column:"id" ~shards:4 in
  fun k -> Bullfrog_cluster.Partition.shard_of_value part (Value.Int k)

let run ~seed =
  let traced = !Spans.on in
  let g = Kv_ops.gen ~seed ~rows ~conn:0 ~clients:1 ~shard_of in
  let ops = Array.init (warmup_n + idle_n + mig_n) (fun _ -> Kv_ops.next g) in
  Spans.phase := "setup";
  let t0 = now () in
  let db = Database.create () in
  List.iter
    (fun sql -> ignore (Database.exec db sql : Executor.result))
    (Kv_ops.create_sql @ Kv_ops.load_sql ~rows);
  let ldb = Lazy_db.create db in
  let setup_s = now () -. t0 in
  let model = Kv_ops.model ~rows ~owns:(fun _ -> true) in
  let report = Migrate_exec.new_report () in
  let sampled = ref [] and n_stmts = ref 0 in
  let schema = ref Kv_ops.Old in
  let exec_op ~op ~parent ~span_name ?report o =
    let txn = Database.begin_txn db in
    match
      List.map
        (fun (sql, params) ->
          if traced then begin
            incr n_stmts;
            if !n_stmts mod sample_every = 0 then
              sampled := (!Spans.phase = "mig" && !schema = Kv_ops.Old, sql, params) :: !sampled
          end;
          Spans.record ~op ~parent span_name (fun _ ->
              match Lazy_db.exec_in ldb txn ?report ~params sql with
              | Executor.Rows (_, r) -> r
              | _ -> []))
        (Kv_ops.stmts !schema o)
    with
    | results ->
        Spans.record ~op ~parent "db.commit" (fun _ -> Database.commit db txn);
        results
    | exception e ->
        Database.abort db txn;
        raise e
  in
  let client ph ~span_name ?report ~first ~n ~between () =
    for j = first to first + n - 1 do
      let o = ops.(j) in
      (match
         op ph (fun () ->
             let op_id = Spans.new_op () in
             Spans.record ~op:op_id ~parent:0 ("op." ^ Kv_ops.kind o) (fun root ->
                 exec_op ~op:op_id ~parent:root ~span_name ?report o))
       with
      | Some results -> Kv_ops.observe model o results
      | None -> ());
      between (j - first + 1)
    done
  in
  let nothing _ = () in
  let warm = phase "warmup" and idle = phase "idle" and mig = phase "mig" in
  measure warm (client warm ~span_name:"db.exec_in" ~first:0 ~n:warmup_n ~between:nothing);
  measure idle (client idle ~span_name:"db.exec_in" ~first:warmup_n ~n:idle_n ~between:nothing);
  Spans.phase := "flip";
  let f0 = now () in
  ignore (Lazy_db.start_migration ldb (Kv_ops.split_spec ()) : Migrate_exec.t);
  let flip_ms = (now () -. f0) *. 1e3 in
  schema := Kv_ops.Split;
  let bg_granules = ref 0 in
  let bg_step () =
    let n =
      Spans.record ~op:0 ~parent:0 "lazy.background_step" (fun _ ->
          Lazy_db.background_step ldb ~batch:bg_batch)
    in
    bg_granules := !bg_granules + n;
    n
  in
  let bg k = if k mod bg_every = 0 then ignore (bg_step () : int) in
  let report = if traced then Some report else None in
  let rollback_ms = ref 0.0 and forward_report = ref (Migrate_exec.new_report ()) in
  measure mig (fun () ->
      client mig ~span_name:"lazy.exec_in" ?report ~first:(warmup_n + idle_n) ~n:forward_n
        ~between:bg ();
      forward_report := Lazy_db.cumulative_report ldb;
      let r0 = now () in
      ignore (Lazy_db.rollback_migration ldb : Migrate_exec.t option);
      rollback_ms := (now () -. r0) *. 1e3;
      schema := Kv_ops.Old;
      client mig ~span_name:"lazy.exec_in" ?report
        ~first:(warmup_n + idle_n + forward_n)
        ~n:(mig_n - forward_n)
        ~between:(fun k -> bg (k + forward_n))
        ());
  let extract_us =
    if traced then
      median_call_us
        (fun (_, sql, params) ->
          Lazy_db.extract_predicates_for_stmt ldb
            (Database.bind_stmt (Some params) (Bullfrog_sql.Parser.parse_one sql)))
        (* the statements the rollback's interception saw *)
        (List.filter (fun (mid_rollback, _, _) -> mid_rollback) !sampled)
    else 0.0
  in
  Spans.phase := "backfill";
  let b0 = now () in
  while bg_step () > 0 do
    ()
  done;
  (* the forward and the backward runtime each keep their own report *)
  let cum = Lazy_db.cumulative_report ldb in
  Migrate_exec.merge_report ~into:cum !forward_report;
  let fz = now () in
  Lazy_db.finalize ldb;
  let finalize_ms = (now () -. fz) *. 1e3 in
  let backfill_s = now () -. b0 in
  let heap_mb = heap_live_mb () in
  let layers =
    if not traced then []
    else begin
      let all = Obs.Counters.snapshot () in
      let c name = float_of_int (try List.assoc name all with Not_found -> 0) in
      let rep = Option.get report in
      let writes =
        Array.fold_left (fun acc o -> if Kv_ops.is_write o then acc + 1 else acc) 0 ops
      in
      phase_layers ~idle ~mig
      @ counter_layers [ idle; mig ]
      @ [
          ( "parser.parse_us",
            median_call_us (fun (_, sql, _) -> Bullfrog_sql.Parser.parse_one sql) !sampled );
          ("db.stmt_us", Spans.median_us ~phase:"idle" "db.exec_in");
          ("db.commit_us", Spans.median_us ~phase:"idle" "db.commit");
          ("mvcc.version_backlog", float_of_int (Database.version_backlog db));
          ( "redo.bytes_per_op",
            ratio
              (float_of_int (String.length (Redo_log.serialize db.Database.redo)))
              (float_of_int writes) );
          ("lazy.stmt_us", Spans.median_us ~phase:"mig" "lazy.exec_in");
          ("lazy.extract_us", extract_us);
          ("lazy.flip_ms", flip_ms);
          ("lazy.rollback_flip_ms", !rollback_ms);
          ("lazy.finalize_ms", finalize_ms);
          ("migrate.granules_lazy", c "core.migrate.granules_lazy");
          ("migrate.granules_bg", c "core.migrate.granules_bg");
          ( "migrate.rows_scanned_per_granule",
            ratio (float_of_int cum.Migrate_exec.r_input_rows)
              (float_of_int cum.Migrate_exec.r_granules_migrated) );
          ( "migrate.useful_ratio",
            ratio
              (float_of_int rep.Migrate_exec.r_granules_migrated)
              (float_of_int
                 (rep.Migrate_exec.r_granules_migrated + rep.Migrate_exec.r_granules_already)) );
          ( "migrate.bg_us_per_granule",
            ratio (Spans.total_s "lazy.background_step" *. 1e6) (float_of_int !bg_granules) );
        ]
    end
  in
  let round =
    { setup_s; phases = [ warm; idle; mig ]; backfill_s; heap_mb; layers }
  in
  let check ~full =
    Kv_ops.check_model model;
    List.iter
      (fun t ->
        check (not (Catalog.exists db.Database.catalog t)) "%s still exists after finalize" t)
      [ "kv_hot"; "kv_cold" ];
    if full then begin
      let got = List.sort compare (Database.query db "SELECT id, grp, val, note FROM kv") in
      let want = Kv_ops.replay ~rows (List.filter Kv_ops.is_write (Array.to_list ops)) in
      check (List.length got = List.length want) "kv has %d rows, the replay %d"
        (List.length got) (List.length want);
      check (got = want) "kv differs from the never-migrated replay"
    end
  in
  (round, check)
