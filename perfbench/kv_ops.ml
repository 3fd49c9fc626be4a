(* The key-value table both kv workloads run, its keyed column split, the
   operation mix, and the client-side model every read is checked
   against.

   kv (id INT PRIMARY KEY, grp INT, val INT, note TEXT), indexed on grp,
   splits into kv_hot (id, grp, val) and kv_cold (id, note).  A client
   owns the keys with [id mod clients = conn] and writes only those, so
   clients never wait on each other's locks and every read of an owned
   key has one right answer. *)

open Bullfrog_db
open Common
module Migration = Bullfrog_core.Migration

type schema = Old | Split

type op =
  | Read of int  (** grp, val of one key *)
  | Read_note of int
  | Add of int * int  (** val += d on one owned key *)
  | Set_note of int * string
  | Insert of int * int * int * string  (** a new owned key *)
  | Add2 of int * int  (** val += 1 on two owned keys on different shards *)
  | Scan of int  (** every row of one group, by the non-key grp index *)

let is_write = function
  | Read _ | Read_note _ | Scan _ -> false
  | Add _ | Set_note _ | Insert _ | Add2 _ -> true

(* The span / latency class of an operation. *)
let kind = function
  | Read _ | Read_note _ | Add _ | Set_note _ | Insert _ -> "point"
  | Add2 _ -> "xshard_write"
  | Scan _ -> "scatter"

let create_sql =
  [
    "CREATE TABLE kv (id INT PRIMARY KEY, grp INT, val INT, note TEXT)";
    "CREATE INDEX kv_grp ON kv (grp)";
  ]

let rows_per_group = 20
let group_count rows = rows / rows_per_group
let initial_row ~rows k = (k, k mod group_count rows, k * 7 mod 1000, Printf.sprintf "n%d" k)

(* INSERT statements that load [rows] rows, 500 to a statement. *)
let load_sql ~rows =
  let batch = 500 in
  List.init ((rows + batch - 1) / batch) (fun b ->
      let lo = b * batch and hi = min rows ((b + 1) * batch) in
      "INSERT INTO kv VALUES "
      ^ String.concat ", "
          (List.init (hi - lo) (fun i ->
               let id, grp, v, note = initial_row ~rows (lo + i) in
               Printf.sprintf "(%d, %d, %d, '%s')" id grp v note)))

(* Both halves declare id as their primary key: the rollback needs a
   unique key carried bare into every output. *)
let split_spec () =
  let output name create cols indexes =
    {
      Migration.out_name = name;
      out_create = Some (Bullfrog_sql.Parser.parse_one create);
      out_population = Bullfrog_sql.Parser.parse_select ("SELECT " ^ cols ^ " FROM kv");
      out_indexes = List.map Bullfrog_sql.Parser.parse_one indexes;
    }
  in
  Migration.make ~name:"kv_split" ~drop_old:[ "kv" ]
    [
      {
        Migration.stmt_name = "kv_split";
        outputs =
          [
            output "kv_hot" "CREATE TABLE kv_hot (id INT PRIMARY KEY, grp INT, val INT)"
              "id, grp, val"
              [ "CREATE INDEX kv_hot_grp ON kv_hot (grp)" ];
            output "kv_cold" "CREATE TABLE kv_cold (id INT PRIMARY KEY, note TEXT)" "id, note" [];
          ];
      };
    ]

let i x = Value.Int x
let s x = Value.Str x

(* The statements of one operation against [schema], with $n
   parameters.  A client with transactions writes a key pair as two
   single-key updates in one transaction; a cluster client has none, so
   it sends one UPDATE with an IN list, which commits through 2PC. *)
let stmts ?(pair = `Two_updates) schema op =
  match (schema, op) with
  | Old, Add2 (a, b) when pair = `Two_updates ->
      [
        ("UPDATE kv SET val = val + 1 WHERE id = $1", [| i a |]);
        ("UPDATE kv SET val = val + 1 WHERE id = $1", [| i b |]);
      ]
  | Split, Add2 (a, b) when pair = `Two_updates ->
      [
        ("UPDATE kv_hot SET val = val + 1 WHERE id = $1", [| i a |]);
        ("UPDATE kv_hot SET val = val + 1 WHERE id = $1", [| i b |]);
      ]
  | Old, Read k -> [ ("SELECT grp, val FROM kv WHERE id = $1", [| i k |]) ]
  | Split, Read k -> [ ("SELECT grp, val FROM kv_hot WHERE id = $1", [| i k |]) ]
  | Old, Read_note k -> [ ("SELECT note FROM kv WHERE id = $1", [| i k |]) ]
  | Split, Read_note k -> [ ("SELECT note FROM kv_cold WHERE id = $1", [| i k |]) ]
  | Old, Add (k, d) -> [ ("UPDATE kv SET val = val + $2 WHERE id = $1", [| i k; i d |]) ]
  | Split, Add (k, d) -> [ ("UPDATE kv_hot SET val = val + $2 WHERE id = $1", [| i k; i d |]) ]
  | Old, Set_note (k, n) -> [ ("UPDATE kv SET note = $2 WHERE id = $1", [| i k; s n |]) ]
  | Split, Set_note (k, n) -> [ ("UPDATE kv_cold SET note = $2 WHERE id = $1", [| i k; s n |]) ]
  | Old, Insert (k, g, v, n) ->
      [ ("INSERT INTO kv VALUES ($1, $2, $3, $4)", [| i k; i g; i v; s n |]) ]
  | Split, Insert (k, g, v, n) ->
      [
        ("INSERT INTO kv_hot VALUES ($1, $2, $3)", [| i k; i g; i v |]);
        ("INSERT INTO kv_cold VALUES ($1, $2)", [| i k; s n |]);
      ]
  | Old, Add2 (a, b) -> [ ("UPDATE kv SET val = val + 1 WHERE id IN ($1, $2)", [| i a; i b |]) ]
  | Split, Add2 (a, b) ->
      [ ("UPDATE kv_hot SET val = val + 1 WHERE id IN ($1, $2)", [| i a; i b |]) ]
  | Old, Scan g -> [ ("SELECT id, val FROM kv WHERE grp = $1", [| i g |]) ]
  | Split, Scan g -> [ ("SELECT id, val FROM kv_hot WHERE grp = $1", [| i g |]) ]

(* The same statement as literal SQL text (what a wire client sends). *)
let inline (sql, params) =
  let b = Buffer.create (String.length sql + 16) in
  let n = String.length sql in
  let rec go j =
    if j < n then
      if sql.[j] = '$' && j + 1 < n && sql.[j + 1] >= '1' && sql.[j + 1] <= '9' then begin
        Buffer.add_string b (Value.to_sql params.(Char.code sql.[j + 1] - Char.code '1'));
        go (j + 2)
      end
      else begin
        Buffer.add_char b sql.[j];
        go (j + 1)
      end
  in
  go 0;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* generator                                                           *)

(* The sequence of operation kinds is the same for every seed; the seed
   draws the keys, values and groups.  The rollback's per-statement purge
   cost lasts until the first insert after the flip (see README, known
   costs), so a seed-drawn kind sequence would move kv-rollback's
   migration throughput twofold from seed to seed. *)
type gen = {
  kinds : Rng.t;
  rng : Rng.t;
  rows : int;  (** initial rows, ids [0, rows) *)
  conn : int;
  clients : int;
  shard_of : int -> int;  (** home shard of a key, for cross-shard pairs *)
  mutable inserted : int;
}

let gen ~seed ~rows ~conn ~clients ~shard_of =
  {
    kinds = Rng.create (104_729 + conn);
    rng = Rng.create ((seed * 7919) + conn);
    rows;
    conn;
    clients;
    shard_of;
    inserted = 0;
  }

let owned_key g = g.conn + (g.clients * Rng.int g.rng (g.rows / g.clients))
let scan g = Scan (Rng.int g.rng (group_count g.rows))

(* The mix, in percent: 53 point reads, 4 note reads, 27 point updates,
   5 note updates, 6 inserts, 3 two-key cross-shard updates, 2 group
   scans. *)
let next g =
  let r = Rng.int g.kinds 100 in
  if r < 53 then Read (Rng.int g.rng g.rows)
  else if r < 57 then Read_note (Rng.int g.rng g.rows)
  else if r < 84 then Add (owned_key g, 1 + Rng.int g.rng 9)
  else if r < 89 then
    let k = owned_key g in
    Set_note (k, Printf.sprintf "m%d-%d" k (Rng.int g.rng 1000))
  else if r < 95 then begin
    let k = g.rows + (g.clients * g.inserted) + g.conn in
    g.inserted <- g.inserted + 1;
    Insert (k, Rng.int g.rng (group_count g.rows), Rng.int g.rng 1000, Printf.sprintf "i%d" k)
  end
  else if r < 98 then begin
    let a = owned_key g in
    let rec other () =
      let b = owned_key g in
      if b <> a && g.shard_of b <> g.shard_of a then b else other ()
    in
    Add2 (a, other ())
  end
  else scan g

(* ------------------------------------------------------------------ *)
(* the client's model of its own keys                                  *)

type row = { grp : int; mutable v : int; mutable note : string }

type model = {
  keys : (int, row) Hashtbl.t;
  by_grp : (int, int) Hashtbl.t;  (** grp -> owned ids (multi-binding) *)
  owns : int -> bool;
  mutable mismatches : int;
  mutable first_mismatch : string;
}

let model ~rows ~owns =
  let m =
    {
      keys = Hashtbl.create rows;
      by_grp = Hashtbl.create (group_count rows);
      owns;
      mismatches = 0;
      first_mismatch = "";
    }
  in
  for k = 0 to rows - 1 do
    if owns k then begin
      let _, grp, v, note = initial_row ~rows k in
      Hashtbl.replace m.keys k { grp; v; note };
      Hashtbl.add m.by_grp grp k
    end
  done;
  m

let mismatch m fmt =
  Printf.ksprintf
    (fun msg ->
      if m.mismatches = 0 then m.first_mismatch <- msg;
      m.mismatches <- m.mismatches + 1)
    fmt

let int_of = function Value.Int x -> x | v -> failwith ("expected int, got " ^ Value.to_string v)

(* Check an operation's result rows against the model, then apply its
   writes (the operation has been acknowledged). *)
let observe m op (results : Value.t array list list) =
  match (op, results) with
  | Read k, [ rows ] -> (
      match Hashtbl.find_opt m.keys k with
      | Some r when m.owns k -> (
          match rows with
          | [ [| g; v |] ] when int_of g = r.grp && int_of v = r.v -> ()
          | _ -> mismatch m "read of key %d: expected (%d, %d)" k r.grp r.v)
      | _ -> if List.length rows <> 1 then mismatch m "read of key %d: %d rows" k (List.length rows))
  | Read_note k, [ rows ] -> (
      match Hashtbl.find_opt m.keys k with
      | Some r when m.owns k -> (
          match rows with
          | [ [| Value.Str n |] ] when n = r.note -> ()
          | _ -> mismatch m "note of key %d: expected %s" k r.note)
      | _ -> if List.length rows <> 1 then mismatch m "note of key %d: %d rows" k (List.length rows))
  | Scan g, [ rows ] ->
      let mine = List.filter (fun r -> m.owns (int_of r.(0))) rows in
      let want = Hashtbl.find_all m.by_grp g in
      if List.length mine <> List.length want then
        mismatch m "scan of group %d: %d owned rows, expected %d" g (List.length mine)
          (List.length want);
      List.iter
        (fun r ->
          let k = int_of r.(0) in
          match Hashtbl.find_opt m.keys k with
          | Some x when x.grp = g && x.v = int_of r.(1) -> ()
          | _ -> mismatch m "scan of group %d: row %d differs" g k)
        mine
  | Add (k, d), _ -> (
      match Hashtbl.find_opt m.keys k with Some r -> r.v <- r.v + d | None -> ())
  | Set_note (k, n), _ -> (
      match Hashtbl.find_opt m.keys k with Some r -> r.note <- n | None -> ())
  | Insert (k, grp, v, note), _ ->
      Hashtbl.replace m.keys k { grp; v; note };
      Hashtbl.add m.by_grp grp k
  | Add2 (a, b), _ ->
      List.iter
        (fun k -> match Hashtbl.find_opt m.keys k with Some r -> r.v <- r.v + 1 | None -> ())
        [ a; b ]
  | (Read _ | Read_note _ | Scan _), _ -> mismatch m "unexpected result shape"

(* A never-migrated single-node replay: the same load, then every
   acknowledged write in order through the original schema.  Returns
   the table's rows, sorted. *)
let replay ~rows writes =
  let db = Database.create () in
  List.iter (fun sql -> ignore (Database.exec db sql : Executor.result)) (create_sql @ load_sql ~rows);
  List.iter
    (fun op ->
      List.iter
        (fun (sql, params) -> ignore (Database.exec db ~params sql : Executor.result))
        (stmts Old op))
    writes;
  List.sort compare (Database.query db "SELECT id, grp, val, note FROM kv")

let check_model m =
  check (m.mismatches = 0) "%d reads disagreed with the client's model; first: %s" m.mismatches
    m.first_mismatch
