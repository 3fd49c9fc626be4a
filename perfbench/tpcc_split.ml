(* tpcc-split: the paper's headline experiment (§4.1) on the real engine
   in wall-clock time.  One closed-loop client runs the standard TPC-C
   mix against a single-node Lazy_db; mid-run the customer table splits
   into customer_public + customer_private, and background batches run
   inside the client loop at a fixed ratio so every count repeats. *)

open Bullfrog_db
open Bullfrog_tpcc
open Common
module Lazy_db = Bullfrog_core.Lazy_db
module Migrate_exec = Bullfrog_core.Migrate_exec

let scale =
  {
    Tpcc_schema.warehouses = 2;
    districts = 10;
    customers = 3000;
    items = 5_000;
    orders = 100;
    lines_per_order = 10;
  }

let warmup_n = 300
let idle_n = 3000
let mig_n = 3000

(* One background batch of [bg_batch] granules after every [bg_every]
   client transactions: 18 k of the 60 k customers over the migration
   phase, beside about 9 k moved lazily, so the backfill still has work
   left. *)
let bg_every = 10
let bg_batch = 60

(* Every [sample_every]th statement (phase, text, parameters) is kept to
   time the parser and predicate extraction on after the phases. *)
let sample_every = 25

let is_write = function
  | Tpcc_txns.New_order _ | Tpcc_txns.Payment _ | Tpcc_txns.Delivery _ -> true
  | Tpcc_txns.Order_status _ | Tpcc_txns.Stock_level _ -> false

let txn_name = function
  | Tpcc_txns.New_order _ -> "txn.new_order"
  | Tpcc_txns.Payment _ -> "txn.payment"
  | Tpcc_txns.Delivery _ -> "txn.delivery"
  | Tpcc_txns.Order_status _ -> "txn.order_status"
  | Tpcc_txns.Stock_level _ -> "txn.stock_level"

(* One transaction through [exec_in] in a transaction the benchmark opens
   and commits itself. *)
let run_txn db ops ~exec_in ~op ~parent input =
  let txn = Database.begin_txn db in
  let exec ?params sql = exec_in txn ?params sql in
  match Tpcc_txns.run ops ~districts:scale.Tpcc_schema.districts exec input with
  | () -> Spans.record ~op ~parent "db.commit" (fun _ -> Database.commit db txn)
  | exception e ->
      Database.abort db txn;
      raise e

(* ------------------------------------------------------------------ *)
(* checks                                                              *)

let rows_named db sql =
  match Database.exec db sql with
  | Executor.Rows (cols, rows) -> (Array.of_list cols, rows)
  | _ -> failwith "expected rows"

(* Rows of [sql], sorted, with the listed date columns reduced to
   whether they are set: dates come from a process-wide counter, so a
   replay in the same process stamps later values. *)
let sorted_rows db ~dates sql =
  let cols, rows = rows_named db sql in
  let mask = Array.map (fun c -> List.mem c dates) cols in
  let rows =
    List.rev_map
      (fun row ->
        Array.mapi
          (fun i v -> if mask.(i) && not (Value.is_null v) then Value.Str "<date>" else v)
          row)
      rows
  in
  List.sort compare rows

let int_of v = Bullfrog_tpcc.Txn_ops.int_of v
let float_of v = Bullfrog_tpcc.Txn_ops.float_of v

(* customer_public ⋈ customer_private, joined here on the key, in the
   old table's column order [cols], sorted. *)
let joined_customer db ~cols =
  let pcols, prow = rows_named db "SELECT * FROM customer_public" in
  let qcols, qrow = rows_named db "SELECT * FROM customer_private" in
  check
    (List.length prow = List.length qrow)
    "customer_public has %d rows, customer_private %d" (List.length prow)
    (List.length qrow);
  let key r = (r.(0), r.(1), r.(2)) in
  let priv = Hashtbl.create (List.length qrow) in
  List.iter (fun r -> Hashtbl.replace priv (key r) r) qrow;
  let idx names c =
    let rec go i = if names.(i) = c then i else go (i + 1) in
    go 0
  in
  let src =
    Array.map
      (fun c -> if Array.mem c pcols then `P (idx pcols c) else `Q (idx qcols c))
      cols
  in
  let joined =
    List.rev_map
      (fun p ->
        let q =
          match Hashtbl.find_opt priv (key p) with
          | Some q -> q
          | None -> raise (Check_failed "customer_public row without its private half")
        in
        Array.mapi
          (fun i s ->
            if cols.(i) = "c_since" then Value.Str "<date>"
            else match s with `P j -> p.(j) | `Q j -> q.(j))
          src)
      prow
  in
  List.sort compare joined

(* TPC-C consistency conditions 1-4 (spec §3.3.2.1-4). *)
let consistency db =
  (* 1: W_YTD = sum(D_YTD) *)
  List.iter
    (fun r ->
      let w = int_of r.(0) in
      let s =
        List.fold_left
          (fun acc d -> acc +. float_of d.(0))
          0.0
          (Database.query db ~params:[| Value.Int w |]
             "SELECT d_ytd FROM district WHERE d_w_id = $1")
      in
      check (Float.abs (s -. float_of r.(1)) < 0.01) "condition 1 fails for warehouse %d" w)
    (Database.query db "SELECT w_id, w_ytd FROM warehouse");
  List.iter
    (fun r ->
      let w = int_of r.(0) and d = int_of r.(1) and next = int_of r.(2) in
      let params = [| Value.Int w; Value.Int d |] in
      let ints sql = List.map (fun r -> int_of r.(0)) (Database.query db ~params sql) in
      let oids = ints "SELECT o_id FROM orders WHERE o_w_id = $1 AND o_d_id = $2" in
      let noids = ints "SELECT no_o_id FROM new_order WHERE no_w_id = $1 AND no_d_id = $2" in
      let mx = List.fold_left max 0 and mn = List.fold_left min max_int in
      (* 2: D_NEXT_O_ID - 1 = max(O_ID) = max(NO_O_ID) *)
      check
        (next - 1 = mx oids && (noids = [] || mx noids = next - 1))
        "condition 2 fails for district (%d,%d)" w d;
      (* 3: max(NO_O_ID) - min(NO_O_ID) + 1 = rows in new_order *)
      check
        (noids = [] || mx noids - mn noids + 1 = List.length noids)
        "condition 3 fails for district (%d,%d)" w d;
      (* 4: sum(O_OL_CNT) = rows in order_line *)
      let ol_cnt =
        List.fold_left ( + ) 0
          (ints "SELECT o_ol_cnt FROM orders WHERE o_w_id = $1 AND o_d_id = $2")
      in
      let lines = ints "SELECT ol_number FROM order_line WHERE ol_w_id = $1 AND ol_d_id = $2" in
      check (ol_cnt = List.length lines) "condition 4 fails for district (%d,%d)" w d)
    (Database.query db "SELECT d_w_id, d_id, d_next_o_id FROM district")

(* The migrated database against a never-migrated one that replays the
   same transaction inputs through the original schema. *)
let check_against_replay ~seed db inputs =
  let odb = Database.create () in
  Loader.load ~seed odb scale;
  Array.iter
    (fun input ->
      Database.with_txn odb (fun txn ->
          Tpcc_txns.run Tpcc_migrations.base_ops ~districts:scale.Tpcc_schema.districts
            (fun ?params sql -> Database.exec_in odb txn ?params sql)
            input))
    inputs;
  let ccols, _ = rows_named odb "SELECT * FROM customer WHERE c_id < 0" in
  let expect = sorted_rows odb ~dates:[ "c_since" ] "SELECT * FROM customer" in
  let got = joined_customer db ~cols:ccols in
  check (List.length got = List.length expect) "customer: %d rows, replay has %d"
    (List.length got) (List.length expect);
  check (got = expect) "customer_public ⋈ customer_private differs from the replay";
  List.iter
    (fun tbl ->
      let sql = "SELECT * FROM " ^ tbl in
      let dates = [ "o_entry_d"; "ol_delivery_d"; "h_date" ] in
      check
        (sorted_rows db ~dates sql = sorted_rows odb ~dates sql)
        "table %s differs from the replay" tbl)
    [ "warehouse"; "district"; "history"; "new_order"; "orders"; "order_line"; "item"; "stock" ]

(* ------------------------------------------------------------------ *)
(* the round                                                           *)

(* The sequence of transaction kinds is the same for every seed (drawn
   once from a fixed stream with the standard mix); the seed draws each
   transaction's parameters, by drawing from the generator until it
   yields the wanted kind.  The idle median falls where Payment's tail
   meets NewOrder's head, so a seed-drawn mix, which moves the share of
   fast kinds by about a point from seed to seed, moved [idle_p50_us]
   by a quarter. *)
let inputs ~seed =
  let gen = { Tpcc_txns.scale; hot_customers = None } in
  let kinds = Rng.create 104_729 and rng = Rng.create seed in
  Array.init (warmup_n + idle_n + mig_n) (fun _ ->
      let want = Tpcc_txns.input_kind (Tpcc_txns.generate kinds gen) in
      let rec draw () =
        let i = Tpcc_txns.generate rng gen in
        if Tpcc_txns.input_kind i = want then i else draw ()
      in
      draw ())

let run ~seed =
  let traced = !Spans.on in
  let inputs = inputs ~seed in
  Spans.phase := "setup";
  let t0 = now () in
  let db = Database.create () in
  Loader.load ~seed db scale;
  let ldb = Lazy_db.create db in
  let setup_s = now () -. t0 in
  let report = Migrate_exec.new_report () in
  let texts = ref [] and n_stmts = ref 0 in
  let exec_in ~op ~parent ~span_name ?report txn ?params sql =
    if traced then begin
      incr n_stmts;
      if !n_stmts mod sample_every = 0 then texts := (!Spans.phase, sql, params) :: !texts;
      Spans.record ~op ~parent span_name (fun _ -> Lazy_db.exec_in ldb txn ?report ?params sql)
    end
    else Lazy_db.exec_in ldb txn ?params sql
  in
  let client ph ops ~span_name ?report ~first ~n ~between () =
    for i = first to first + n - 1 do
      let input = inputs.(i) in
      ignore
        (op ph (fun () ->
             let op_id = Spans.new_op () in
             Spans.record ~op:op_id ~parent:0 (txn_name input) (fun root ->
                 run_txn db ops ~op:op_id ~parent:root
                   ~exec_in:(exec_in ~op:op_id ~parent:root ~span_name ?report)
                   input))
          : unit option);
      between (i - first + 1)
    done
  in
  let nothing _ = () in
  let warm = phase "warmup" and idle = phase "idle" and mig = phase "mig" in
  measure warm
    (client warm Tpcc_migrations.base_ops ~span_name:"db.exec_in" ~first:0 ~n:warmup_n
       ~between:nothing);
  measure idle
    (client idle Tpcc_migrations.base_ops ~span_name:"db.exec_in" ~first:warmup_n ~n:idle_n
       ~between:nothing);
  Spans.phase := "flip";
  let flip_t0 = now () in
  ignore (Lazy_db.start_migration ldb (Tpcc_migrations.split_spec ()) : Migrate_exec.t);
  let flip_ms = (now () -. flip_t0) *. 1e3 in
  let bg_granules = ref 0 in
  let bg_step () =
    let n =
      Spans.record ~op:0 ~parent:0 "lazy.background_step" (fun _ ->
          Lazy_db.background_step ldb ~batch:bg_batch)
    in
    bg_granules := !bg_granules + n;
    n
  in
  measure mig
    (client mig (Tpcc_migrations.post_ops Tpcc_migrations.Split) ~span_name:"lazy.exec_in"
       ?report:(if traced then Some report else None)
       ~first:(warmup_n + idle_n) ~n:mig_n
       ~between:(fun k -> if k mod bg_every = 0 then ignore (bg_step () : int)));
  (* predicate extraction, timed on sampled statements while the
     migration is still in flight *)
  let extract_us =
    if traced then
      median_call_us
        (fun (_, sql, params) ->
          Lazy_db.extract_predicates_for_stmt ldb
            (Database.bind_stmt params (Bullfrog_sql.Parser.parse_one sql)))
        (List.filter (fun (ph, _, _) -> ph = "mig") !texts)
    else 0.0
  in
  Spans.phase := "backfill";
  let b0 = now () in
  while bg_step () > 0 do
    ()
  done;
  let cum = Lazy_db.cumulative_report ldb in
  let f0 = now () in
  Lazy_db.finalize ldb;
  let finalize_ms = (now () -. f0) *. 1e3 in
  let backfill_s = now () -. b0 in
  let heap_mb = heap_live_mb () in
  let layers =
    if not traced then []
    else begin
      let all = Obs.Counters.snapshot () in
      let c name = float_of_int (try List.assoc name all with Not_found -> 0) in
      let writes =
        Array.fold_left (fun acc i -> if is_write i then acc + 1 else acc) 0 inputs
      in
      phase_layers ~idle ~mig
      @ counter_layers [ idle; mig ]
      @ [
          ( "parser.parse_us",
            median_call_us (fun (_, sql, _) -> Bullfrog_sql.Parser.parse_one sql) !texts );
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
          ("lazy.finalize_ms", finalize_ms);
          ("migrate.granules_lazy", c "core.migrate.granules_lazy");
          ("migrate.granules_bg", c "core.migrate.granules_bg");
          ( "migrate.rows_scanned_per_granule",
            ratio (float_of_int cum.Migrate_exec.r_input_rows)
              (float_of_int cum.Migrate_exec.r_granules_migrated) );
          ( "migrate.useful_ratio",
            ratio
              (float_of_int report.Migrate_exec.r_granules_migrated)
              (float_of_int
                 (report.Migrate_exec.r_granules_migrated
                + report.Migrate_exec.r_granules_already)) );
          ( "migrate.bg_us_per_granule",
            ratio (Spans.total_s "lazy.background_step" *. 1e6) (float_of_int !bg_granules) );
        ]
    end
  in
  let round =
    { setup_s; phases = [ warm; idle; mig ]; backfill_s; heap_mb; layers }
  in
  let check ~full =
    check
      (not (Catalog.exists db.Database.catalog "customer"))
      "customer table still present after finalize";
    consistency db;
    if full then check_against_replay ~seed db inputs
  in
  (round, check)
