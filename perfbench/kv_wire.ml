(* kv-wire-cluster: the production shape.  A wire Server runs in this
   process over a 4-shard Cluster; two client connections run the kv mix
   as literal SQL text in closed loop, so every statement is parsed at
   the coordinator.  The migration is the keyed column split through
   Cluster.start_migration; connection 0 runs the background batches
   inside its loop. *)

open Bullfrog_db
open Common
module Cluster = Bullfrog_cluster.Cluster
module Partition = Bullfrog_cluster.Partition
module Server = Bullfrog_server.Server
module Client = Bullfrog_server.Client
module Protocol = Bullfrog_server.Protocol
module Lazy_db = Bullfrog_core.Lazy_db
module Migrate_exec = Bullfrog_core.Migrate_exec

let shards = 4
let clients = 2
let rows = 40_000
let warmup_n = 300
let idle_n = 6_000
let mig_n = 6_000

(* Connection 0 runs one background batch of [bg_batch] granules per
   shard after every [bg_every] of its operations. *)
let bg_every = 20
let bg_batch = 10
let sample_every = 50

(* Between backfill completion and finalize, connection 0 runs
   [drain_scans] of the mix's group scans and, after every
   [drain_count_every] of them, a row count of the whole table. *)
let drain_scans = 40
let drain_count_every = 10

(* Traced run: the client registers each statement before sending it, so
   the frontend wrapper can hang its span under the client's request span
   and report the time spent inside the cluster.  The wrapper sees only
   the text, so when both connections have the same text in flight (a
   read of the same key, a scan of the same group) the record is marked
   shared: the wrapper then records nothing and neither request keeps a
   sample. *)
type pending = {
  p_op : int;
  p_parent : int;
  p_kind : string;
  mutable p_exec_s : float;
  mutable p_users : int;
  mutable p_shared : bool;
}

let pending : (string, pending) Hashtbl.t = Hashtbl.create 16
let pending_lock = Mutex.create ()

let with_pending f =
  Mutex.lock pending_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock pending_lock) f

let register sql p =
  with_pending (fun () ->
      match Hashtbl.find_opt pending sql with
      | Some q ->
          q.p_users <- q.p_users + 1;
          q.p_shared <- true;
          q
      | None ->
          Hashtbl.replace pending sql p;
          p)

(* Whether the request kept its record to itself. *)
let release sql q =
  with_pending (fun () ->
      q.p_users <- q.p_users - 1;
      if q.p_users = 0 then Hashtbl.remove pending sql;
      not q.p_shared)

let traced_frontend (fe : Frontend.t) =
  {
    fe with
    Frontend.f_exec =
      (fun ?params sql ->
        let mine =
          with_pending (fun () ->
              match Hashtbl.find_opt pending sql with
              | Some p when not p.p_shared -> Some p
              | Some _ | None -> None)
        in
        match mine with
        | Some p ->
            let t0 = now () in
            let r =
              Spans.record ~op:p.p_op ~parent:p.p_parent ("cluster." ^ p.p_kind) (fun _ ->
                  fe.Frontend.f_exec ?params sql)
            in
            p.p_exec_s <- now () -. t0;
            r
        | None -> fe.Frontend.f_exec ?params sql);
  }

type conn = {
  cl : Client.t;
  gen : Kv_ops.gen;
  model : Kv_ops.model;
  mutable writes : Kv_ops.op list;  (** acknowledged, newest first *)
  wire_us : Samples.t;  (** round trip minus time inside the cluster *)
  mutable texts : (string * string) list;  (** sampled (phase, statement text) *)
  mutable sent : int;
}

let request c ~op ~parent ~kind sql =
  c.sent <- c.sent + 1;
  if !Spans.on && c.sent mod sample_every = 0 then c.texts <- (!Spans.phase, sql) :: c.texts;
  let resp =
    Spans.record ~op ~parent "wire.request" (fun sid ->
        if not !Spans.on then Client.exec c.cl sql
        else begin
          let p =
            {
              p_op = op;
              p_parent = sid;
              p_kind = kind;
              p_exec_s = 0.0;
              p_users = 1;
              p_shared = false;
            }
          in
          let q = register sql p in
          let t0 = now () in
          let r = Client.exec c.cl sql in
          let rtt = now () -. t0 in
          if release sql q && !Spans.phase = "idle" then
            Samples.add c.wire_us ((rtt -. q.p_exec_s) *. 1e6);
          r
        end)
  in
  match resp with
  | Protocol.Ok_rows (_, rows) -> rows
  | Protocol.Ok_affected _ | Protocol.Ok_text _ -> []
  | Protocol.Error (code, msg) ->
      failwith (Printf.sprintf "%s: %s" (Protocol.error_code_to_string code) msg)
  | Protocol.Bye -> failwith "server said BYE"

(* One client operation of connection [c]: its statements in order, each
   a wire round trip. *)
let run_op c ph ~kind stmts =
  op ph (fun () ->
      let op_id = Spans.new_op () in
      Spans.record ~op:op_id ~parent:0 ("op." ^ kind) (fun root ->
          List.map (fun sql -> request c ~op:op_id ~parent:root ~kind sql) stmts))

(* [n] operations of one connection, in its own thread; [between k] runs
   after its [k]th operation. *)
let client_loop c ph ~schema ~n ~between =
  for k = 1 to n do
    let o = Kv_ops.next c.gen in
    (match
       run_op c ph ~kind:(Kv_ops.kind o)
         (List.map Kv_ops.inline (Kv_ops.stmts ~pair:`In_list schema o))
     with
    | Some results ->
        Kv_ops.observe c.model o results;
        if Kv_ops.is_write o then c.writes <- o :: c.writes
    | None -> ());
    between k
  done

let run_phase conns ph ~schema ~n ~between =
  measure ph (fun () ->
      let locals = Array.map (fun _ -> phase ph.ph_name) conns in
      let threads =
        Array.mapi
          (fun i c ->
            Thread.create
              (fun () -> client_loop c locals.(i) ~schema ~n ~between:(between i))
              ())
          conns
      in
      Array.iter Thread.join threads;
      Array.iter (merge ~into:ph) locals)

let run ~seed =
  let traced = !Spans.on in
  let part = Partition.hash ~column:"id" ~shards in
  let shard_of k = Partition.shard_of_value part (Value.Int k) in
  Spans.phase := "setup";
  let t0 = now () in
  let c = Cluster.create ~shards () in
  List.iter
    (fun sql -> ignore (Cluster.exec c sql : Executor.result))
    (Kv_ops.create_sql @ Kv_ops.load_sql ~rows);
  let fe = Cluster.frontend c in
  let server = Server.start (if traced then traced_frontend fe else fe) in
  let conns =
    Array.init clients (fun conn ->
        {
          cl = Client.connect ~port:(Server.port server) ();
          gen = Kv_ops.gen ~seed ~rows ~conn ~clients ~shard_of;
          model = Kv_ops.model ~rows ~owns:(fun k -> k mod clients = conn);
          writes = [];
          wire_us = Samples.create ();
          texts = [];
          sent = 0;
        })
  in
  let setup_s = now () -. t0 in
  let none _ _ = () in
  let warm = phase "warmup" and idle = phase "idle" and mig = phase "mig" in
  run_phase conns warm ~schema:Kv_ops.Old ~n:warmup_n ~between:none;
  run_phase conns idle ~schema:Kv_ops.Old ~n:idle_n ~between:none;
  Spans.phase := "flip";
  let f0 = now () in
  Cluster.start_migration c (Kv_ops.split_spec ());
  let flip_ms = (now () -. f0) *. 1e3 in
  let bg_granules = Atomic.make 0 in
  let bg_step () =
    let n =
      Spans.record ~op:0 ~parent:0 "cluster.background_step" (fun _ ->
          Cluster.background_step c ~batch:bg_batch)
    in
    ignore (Atomic.fetch_and_add bg_granules n : int);
    n
  in
  run_phase conns mig ~schema:Kv_ops.Split ~n:mig_n ~between:(fun i k ->
      if i = 0 && k mod bg_every = 0 then ignore (bg_step () : int));
  Spans.phase := "backfill";
  let b0 = now () in
  while bg_step () > 0 do
    ()
  done;
  (* The backfill is complete; the migration is not yet finalized.
     Cluster.drive_migration makes no completeness test, so these
     statements still walk the migration's inputs. *)
  let drain = phase "drain" and counts = ref [] in
  measure drain (fun () ->
      let c0 = conns.(0) in
      for k = 1 to drain_scans do
        let o = Kv_ops.scan c0.gen in
        (match run_op c0 drain ~kind:"scatter" (List.map Kv_ops.inline (Kv_ops.stmts Split o)) with
        | Some results -> Kv_ops.observe c0.model o results
        | None -> ());
        if k mod drain_count_every = 0 then
          match run_op c0 drain ~kind:"count" [ "SELECT COUNT(*) FROM kv_hot" ] with
          | Some [ rows ] -> counts := rows :: !counts
          | Some _ | None -> ()
      done);
  let fz = now () in
  Cluster.finalize c;
  let finalize_ms = (now () -. fz) *. 1e3 in
  let backfill_s = now () -. b0 in
  let heap_mb = heap_live_mb () in
  let layers =
    if not traced then []
    else begin
      let all = Obs.Counters.snapshot () in
      let c_ name = float_of_int (try List.assoc name all with Not_found -> 0) in
      let sum_phases name = float_of_int (counter idle name + counter mig name) in
      let texts = List.concat_map (fun c -> c.texts) (Array.to_list conns) in
      let wire = Samples.create () in
      Array.iter (fun c -> Samples.append ~into:wire c.wire_us) conns;
      let writes =
        Array.fold_left (fun acc c -> acc + List.length c.writes) 0 conns
      in
      let shard_dbs = List.init shards (Cluster.shard_db c) in
      (* The cluster keeps its shards' Lazy_db private, so predicate
         extraction is timed on a probe: an empty kv table under the same
         split, fed the sampled statement texts. *)
      let extract_us =
        let pdb = Database.create () in
        List.iter (fun sql -> ignore (Database.exec pdb sql : Executor.result)) Kv_ops.create_sql;
        let probe = Lazy_db.create pdb in
        ignore (Lazy_db.start_migration probe (Kv_ops.split_spec ()) : Migrate_exec.t);
        median_call_us
          (fun sql -> Lazy_db.extract_predicates_for_stmt probe (Bullfrog_sql.Parser.parse_one sql))
          (List.filter_map (fun (ph, sql) -> if ph = "mig" then Some sql else None) texts)
      in
      phase_layers ~idle ~mig
      @ counter_layers [ idle; mig ]
      @ [
          ("server.wire_us", Samples.median wire);
          ("cluster.point_us", Spans.median_us ~phase:"idle" "cluster.point");
          ("cluster.xshard_write_us", Spans.median_us ~phase:"idle" "cluster.xshard_write");
          ("cluster.scatter_us", Spans.median_us ~phase:"idle" "cluster.scatter");
          ("cluster.mig_scatter_us", Spans.median_us ~phase:"mig" "cluster.scatter");
          ("cluster.drain_scatter_us", Spans.median_us ~phase:"drain" "cluster.scatter");
          ("cluster.drain_count_us", Spans.median_us ~phase:"drain" "cluster.count");
          ( "cluster.multi_shard_share",
            ratio
              (sum_phases "shard.routed_multi" +. sum_phases "shard.scatters")
              (sum_phases "shard.stmts") );
          ("parser.parse_us", median_call_us Bullfrog_sql.Parser.parse_one (List.map snd texts));
          ( "mvcc.version_backlog",
            float_of_int (List.fold_left (fun a db -> a + Database.version_backlog db) 0 shard_dbs)
          );
          ( "redo.bytes_per_op",
            ratio
              (float_of_int
                 (List.fold_left
                    (fun a db -> a + String.length (Redo_log.serialize db.Database.redo))
                    0 shard_dbs))
              (float_of_int writes) );
          ("lazy.extract_us", extract_us);
          ("lazy.flip_ms", flip_ms);
          ("lazy.finalize_ms", finalize_ms);
          ("migrate.granules_lazy", c_ "core.migrate.granules_lazy");
          ("migrate.granules_bg", c_ "core.migrate.granules_bg");
          ( "migrate.bg_us_per_granule",
            ratio
              (Spans.total_s "cluster.background_step" *. 1e6)
              (float_of_int (Atomic.get bg_granules)) );
        ]
    end
  in
  let round =
    {
      setup_s;
      phases = [ warm; idle; mig; drain ];
      backfill_s;
      heap_mb;
      layers;
    }
  in
  (* Two connections interleave differently in every round, so every round
     replays, whatever [full] says. *)
  let check ~full:_ =
    Fun.protect
      ~finally:(fun () ->
        Array.iter (fun c -> Client.close c.cl) conns;
        Server.stop server;
        Cluster.close c)
      (fun () ->
        Array.iter (fun c -> Kv_ops.check_model c.model) conns;
        let writes = List.concat_map (fun c -> List.rev c.writes) (Array.to_list conns) in
        let table_rows =
          rows + List.length (List.filter (function Kv_ops.Insert _ -> true | _ -> false) writes)
        in
        List.iter
          (fun r ->
            check (r = [ [| Value.Int table_rows |] ]) "COUNT(*) before finalize differs from %d"
              table_rows)
          !counts;
        let read sql =
          match Client.exec conns.(0).cl sql with
          | Protocol.Ok_rows (_, rows) -> rows
          | _ -> raise (Check_failed ("read-back failed: " ^ sql))
        in
        let cold = Hashtbl.create rows in
        List.iter (fun r -> Hashtbl.replace cold r.(0) r.(1)) (read "SELECT id, note FROM kv_cold");
        let hot = read "SELECT id, grp, val FROM kv_hot" in
        check (List.length hot = Hashtbl.length cold) "kv_hot has %d rows, kv_cold %d"
          (List.length hot) (Hashtbl.length cold);
        let got =
          List.sort compare
            (List.map
               (fun r ->
                 match Hashtbl.find_opt cold r.(0) with
                 | Some note -> [| r.(0); r.(1); r.(2); note |]
                 | None -> raise (Check_failed "kv_hot row without its kv_cold half"))
               hot)
        in
        let want = Kv_ops.replay ~rows writes in
        check (List.length got = List.length want) "read back %d rows, the replay has %d"
          (List.length got) (List.length want);
        check (got = want) "rows read back over the wire differ from the replay")
  in
  (round, check)
