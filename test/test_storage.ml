module Dict = Lh_storage.Dict
module Date = Lh_storage.Date
module Dtype = Lh_storage.Dtype
module Schema = Lh_storage.Schema
module Table = Lh_storage.Table
module Trie = Lh_storage.Trie

(* ---- dates ---- *)

let test_date_known () =
  Alcotest.(check int) "epoch" 0 (Date.of_ymd 1970 1 1);
  Alcotest.(check int) "next day" 1 (Date.of_ymd 1970 1 2);
  Alcotest.(check string) "roundtrip string" "1994-01-01" (Date.to_string (Date.of_string "1994-01-01"));
  Alcotest.(check int) "year" 1998 (Date.year (Date.of_string "1998-12-01"));
  Alcotest.(check int) "leap day" (Date.of_ymd 2000 3 1 - 1) (Date.of_ymd 2000 2 29)

let test_date_interval_arith () =
  let d = Date.of_string "1998-12-01" in
  Alcotest.(check string) "minus 90" "1998-09-02" (Date.to_string (Date.add_days d (-90)))

let test_date_malformed () =
  List.iter
    (fun s ->
      match Date.of_string s with
      | exception Failure _ -> ()
      | _ -> Alcotest.failf "accepted %S" s)
    [ "nope"; "1994-13-01"; "1994-00-10"; "1994/01/01"; "" ]

let qcheck_date_roundtrip =
  Helpers.qtest ~count:500 "ymd roundtrip"
    QCheck2.Gen.(triple (int_range 1900 2100) (int_range 1 12) (int_range 1 28))
    (fun (y, m, d) -> Date.to_ymd (Date.of_ymd y m d) = (y, m, d))

let qcheck_date_monotone =
  Helpers.qtest "codes are order-preserving"
    QCheck2.Gen.(
      pair
        (triple (int_range 1900 2100) (int_range 1 12) (int_range 1 28))
        (triple (int_range 1900 2100) (int_range 1 12) (int_range 1 28)))
    (fun ((y1, m1, d1), (y2, m2, d2)) ->
      compare (y1, m1, d1) (y2, m2, d2) = compare (Date.of_ymd y1 m1 d1) (Date.of_ymd y2 m2 d2))

(* ---- dict ---- *)

let test_dict_encode_decode () =
  let d = Dict.create () in
  let a = Dict.encode d "alpha" in
  let b = Dict.encode d "beta" in
  Alcotest.(check int) "stable" a (Dict.encode d "alpha");
  Alcotest.(check bool) "distinct" true (a <> b);
  Alcotest.(check string) "decode" "beta" (Dict.decode d b);
  Alcotest.(check int) "size" 2 (Dict.size d);
  Alcotest.(check (option int)) "find known" (Some a) (Dict.find d "alpha");
  Alcotest.(check (option int)) "find unknown" None (Dict.find d "gamma")

let qcheck_dict_roundtrip =
  Helpers.qtest "encode/decode roundtrip"
    QCheck2.Gen.(list_size (int_range 0 50) (string_size (int_range 0 10)))
    (fun strings ->
      let d = Dict.create () in
      let codes = List.map (Dict.encode d) strings in
      List.for_all2 (fun s c -> String.equal (Dict.decode d c) s) strings codes)

(* A frozen handle sees exactly the prefix it was frozen at, whatever the
   owner appends afterwards. *)
let test_dict_freeze_prefix () =
  let d = Dict.create () in
  let a = Dict.encode d "alpha" and b = Dict.encode d "beta" in
  let f = Dict.freeze d in
  for i = 0 to 99 do
    ignore (Dict.encode d (Printf.sprintf "later%d" i))
  done;
  Alcotest.(check int) "frozen size" 2 (Dict.size f);
  Alcotest.(check int) "owner size" 102 (Dict.size d);
  Alcotest.(check string) "frozen decode" "beta" (Dict.decode f b);
  Alcotest.(check (option int)) "frozen find known" (Some a) (Dict.find f "alpha");
  Alcotest.(check (option int)) "owner's later string invisible" None (Dict.find f "later5");
  Alcotest.check_raises "later code undecodable" (Invalid_argument "Dict.decode: unknown code 2")
    (fun () -> ignore (Dict.decode f 2))

(* Encoding into a frozen handle: known strings keep their codes and add
   nothing; the first new string forks a private pool, leaving the
   owner's untouched. *)
let test_dict_fork_on_new_string () =
  let d = Dict.create () in
  let a = Dict.encode d "alpha" in
  ignore (Dict.encode d "beta");
  let f = Dict.freeze d in
  Alcotest.(check int) "known string, same code" a (Dict.encode f "alpha");
  Alcotest.(check int) "no growth on known strings" 2 (Dict.size f);
  let g = Dict.encode f "gamma" in
  Alcotest.(check int) "next code in the fork" 2 g;
  Alcotest.(check int) "owner unchanged" 2 (Dict.size d);
  Alcotest.(check (option int)) "owner never sees the fork's string" None (Dict.find d "gamma");
  (* the owner's own next string takes the same code, independently *)
  Alcotest.(check int) "owner's next code" 2 (Dict.encode d "delta");
  Alcotest.(check string) "fork decode" "gamma" (Dict.decode f g);
  Alcotest.(check string) "owner decode" "delta" (Dict.decode d 2);
  Alcotest.(check (option int)) "fork does not see the owner's" None (Dict.find f "delta")

(* A reader domain looking strings up through a frozen handle while the
   owner keeps inserting (and resizing its index) always gets the frozen
   answers. *)
let test_dict_find_races_owner () =
  let d = Dict.create () in
  let known = Array.init 500 (fun i -> Printf.sprintf "k%d" i) in
  Array.iter (fun s -> ignore (Dict.encode d s)) known;
  let f = Dict.freeze d in
  let stop = Atomic.make false in
  let reader =
    Domain.spawn (fun () ->
        let bad = ref 0 and rounds = ref 0 in
        while (not (Atomic.get stop)) || !rounds = 0 do
          Array.iteri (fun i s -> if Dict.find f s <> Some i then incr bad) known;
          if Dict.find f "n17" <> None then incr bad;
          incr rounds
        done;
        !bad)
  in
  for i = 0 to 49_999 do
    ignore (Dict.encode d (Printf.sprintf "n%d" i))
  done;
  Atomic.set stop true;
  Alcotest.(check int) "reader saw only the frozen prefix" 0 (Domain.join reader);
  Alcotest.(check int) "owner has everything" 50_500 (Dict.size d)

(* ---- schema ---- *)

let test_schema_basics () =
  let s =
    Schema.create
      [ ("id", Dtype.Int, Schema.Key); ("name", Dtype.String, Schema.Annotation);
        ("v", Dtype.Float, Schema.Annotation) ]
  in
  Alcotest.(check int) "ncols" 3 (Schema.ncols s);
  Alcotest.(check (option int)) "find" (Some 1) (Schema.find s "name");
  Alcotest.(check (list int)) "keys" [ 0 ] (Schema.key_indices s);
  Alcotest.(check (list int)) "annotations" [ 1; 2 ] (Schema.annotation_indices s);
  Alcotest.(check bool) "is_key" true (Schema.is_key s 0)

let test_schema_rejects () =
  (match Schema.create [ ("a", Dtype.Int, Schema.Key); ("a", Dtype.Float, Schema.Annotation) ] with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "duplicate accepted");
  match Schema.create [ ("f", Dtype.Float, Schema.Key) ] with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "float key accepted"

(* ---- table ---- *)

let mini_schema =
  Schema.create
    [ ("k", Dtype.Int, Schema.Key); ("s", Dtype.String, Schema.Annotation);
      ("d", Dtype.Date, Schema.Annotation); ("x", Dtype.Float, Schema.Annotation) ]

let mini_rows =
  [
    [ Dtype.VInt 1; Dtype.VString "a"; Dtype.VDate (Date.of_string "2001-05-05"); Dtype.VFloat 1.5 ];
    [ Dtype.VInt 2; Dtype.VString "b"; Dtype.VDate (Date.of_string "1999-01-31"); Dtype.VFloat (-2.0) ];
  ]

let test_table_of_rows () =
  let dict = Dict.create () in
  let t = Table.of_rows ~name:"mini" ~schema:mini_schema ~dict mini_rows in
  Alcotest.(check int) "nrows" 2 t.Table.nrows;
  Alcotest.(check bool) "roundtrip" true (Table.to_rows t = mini_rows);
  Alcotest.(check (float 0.0)) "number" (-2.0) (Table.number t 3 1);
  Alcotest.(check int) "code of string" (Dict.encode dict "a") (Table.code t 1 0)

let test_table_csv_roundtrip () =
  let dict = Dict.create () in
  let t = Table.of_rows ~name:"mini" ~schema:mini_schema ~dict mini_rows in
  let path = Filename.temp_file "lh_table" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Lh_util.Csv.write_file path
        (List.map (List.map Dtype.value_to_string) (Table.to_rows t));
      let t2 = Table.load_csv ~name:"mini2" ~schema:mini_schema ~dict path in
      Alcotest.(check bool) "same rows" true (Table.to_rows t2 = mini_rows))

let test_table_encode_const () =
  let dict = Dict.create () in
  let t = Table.of_rows ~name:"mini" ~schema:mini_schema ~dict mini_rows in
  Alcotest.(check (option int)) "known string" (Some (Dict.encode dict "a"))
    (Table.encode_const t 1 (Dtype.VString "a"));
  Alcotest.(check (option int)) "unknown string" None (Table.encode_const t 1 (Dtype.VString "zz"));
  Alcotest.(check (option int)) "date" (Some (Date.of_string "1999-01-31"))
    (Table.encode_const t 2 (Dtype.VString "1999-01-31"))

let test_table_validation () =
  let dict = Dict.create () in
  (match
     Table.create ~name:"bad" ~schema:mini_schema ~dict
       [| Table.Icol [| 1 |]; Table.Icol [| 0 |]; Table.Icol [| 0 |] |]
   with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "column count accepted");
  match
    Table.create ~name:"bad" ~schema:mini_schema ~dict
      [| Table.Icol [| -1 |]; Table.Icol [| 0 |]; Table.Icol [| 0 |]; Table.Fcol [| 0.0 |] |]
  with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "negative key accepted"

(* ---- trie ---- *)

(* Model: a trie built over (keys, rows) must enumerate exactly the sorted
   distinct key tuples, with multiplicities summing the row count. *)
let qcheck_trie_vs_model =
  let gen =
    QCheck2.Gen.(
      let* nlevels = int_range 1 3 in
      let* nrows = int_range 0 60 in
      let* data = list_repeat (nlevels * nrows) (int_range 0 8) in
      return (nlevels, nrows, Array.of_list data))
  in
  Helpers.qtest ~count:300 "trie enumerates sorted distinct tuples" gen
    (fun (nlevels, nrows, data) ->
      let keys = Array.init nlevels (fun l -> Array.init nrows (fun r -> data.((l * nrows) + r))) in
      let rows = Array.init nrows Fun.id in
      let trie = Trie.build ~keys ~rows () in
      let expected =
        List.init nrows (fun r -> List.init nlevels (fun l -> keys.(l).(r)))
        |> List.sort_uniq compare
      in
      let got = ref [] in
      Trie.iter_tuples trie (fun tup _ -> got := Array.to_list tup :: !got);
      let got = List.rev !got in
      let mult_total = ref 0.0 in
      Trie.iter_tuples trie (fun _ g -> mult_total := !mult_total +. g.Trie.mult);
      got = expected
      && Trie.cardinality trie = List.length expected
      && int_of_float !mult_total = nrows)

let test_trie_aggregation () =
  (* keys: one level; rows share keys; Sum/Min/Max pre-aggregation *)
  let keys = [| [| 1; 2; 1; 2; 1 |] |] in
  let vals = [| 10.0; 20.0; 30.0; 40.0; 50.0 |] in
  let trie =
    Trie.build ~keys ~rows:[| 0; 1; 2; 3; 4 |]
      ~aggs:
        [|
          (( +. ), fun r -> vals.(r));
          (Float.min, fun r -> vals.(r));
          (Float.max, fun r -> vals.(r));
        |]
      ()
  in
  let got = ref [] in
  Trie.iter_tuples trie (fun tup g -> got := (tup.(0), g.Trie.vec, g.Trie.mult) :: !got);
  match List.rev !got with
  | [ (1, v1, m1); (2, v2, m2) ] ->
      Alcotest.(check (float 1e-9)) "sum k=1" 90.0 v1.(0);
      Alcotest.(check (float 1e-9)) "min k=1" 10.0 v1.(1);
      Alcotest.(check (float 1e-9)) "max k=1" 50.0 v1.(2);
      Alcotest.(check (float 1e-9)) "mult k=1" 3.0 m1;
      Alcotest.(check (float 1e-9)) "sum k=2" 60.0 v2.(0);
      Alcotest.(check (float 1e-9)) "mult k=2" 2.0 m2
  | other -> Alcotest.failf "unexpected leaves: %d" (List.length other)

let test_trie_group_codes () =
  (* duplicate keys with different group codes must stay separate *)
  let keys = [| [| 7; 7; 7 |] |] in
  let codes = [| [| 100; 200; 100 |] |] in
  let vals = [| 1.0; 2.0; 4.0 |] in
  let trie =
    Trie.build ~keys ~rows:[| 0; 1; 2 |] ~group_cols:codes
      ~aggs:[| (( +. ), fun r -> vals.(r)) |]
      ()
  in
  let got = ref [] in
  Trie.iter_tuples trie (fun _ g -> got := (g.Trie.codes.(0), g.Trie.vec.(0)) :: !got);
  Alcotest.(check (list (pair int (float 1e-9))))
    "two groups" [ (100, 5.0); (200, 2.0) ]
    (List.sort compare !got)

let test_trie_lookup () =
  let keys = [| [| 1; 1; 2 |]; [| 5; 6; 5 |] |] in
  let trie = Trie.build ~keys ~rows:[| 0; 1; 2 |] () in
  (match Trie.lookup trie [| 1 |] with
  | Some node -> Alcotest.(check (array int)) "children of 1" [| 5; 6 |] (Lh_set.Set.to_array node.Trie.set)
  | None -> Alcotest.fail "prefix 1 missing");
  Alcotest.(check bool) "missing prefix" true (Trie.lookup trie [| 9 |] = None);
  Alcotest.(check (array int)) "first level" [| 1; 2 |] (Lh_set.Set.to_array (Trie.first_level trie))

let test_trie_level_max () =
  let keys = [| [| 4; 9 |]; [| 100; 3 |] |] in
  let trie = Trie.build ~keys ~rows:[| 0; 1 |] () in
  Alcotest.(check (array int)) "level maxima" [| 9; 100 |] trie.Trie.level_max

let test_trie_empty () =
  let trie = Trie.build ~keys:[| [||] |] ~rows:[||] () in
  Alcotest.(check int) "cardinality" 0 (Trie.cardinality trie);
  let visited = ref 0 in
  Trie.iter_tuples trie (fun _ _ -> incr visited);
  Alcotest.(check int) "no tuples" 0 !visited

let test_trie_mults_override () =
  let keys = [| [| 1; 1 |] |] in
  let trie = Trie.build ~keys ~rows:[| 0; 1 |] ~mults:(fun r -> float_of_int (r + 1) *. 2.0) () in
  Trie.iter_tuples trie (fun _ g -> Alcotest.(check (float 1e-9)) "summed mults" 6.0 g.Trie.mult)

(* Regression: a malformed row aborts the load as a typed
   [Engine.Error Semantic] carrying the 1-based file line number (empty
   lines are skipped but still counted), the catalog is left without the
   table, and the sequential and parallel ingest paths agree. *)
let test_csv_malformed_line () =
  let module L = Levelheaded in
  let schema =
    Schema.create [ ("k", Dtype.Int, Schema.Key); ("v", Dtype.Float, Schema.Annotation) ]
  in
  let write lines =
    let path = Filename.temp_file "lh_badcsv" ".csv" in
    let oc = open_out path in
    List.iter (fun l -> output_string oc (l ^ "\n")) lines;
    close_out oc;
    path
  in
  let contains ~sub s =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  let check name ~domains path expect =
    let eng = L.Engine.create ~config:{ L.Config.default with L.Config.domains } () in
    (match L.Engine.load_csv eng ~name:"bad" ~schema path with
    | _ -> Alcotest.failf "%s: malformed load succeeded" name
    | exception L.Engine.Error (L.Engine.Error.Semantic m) ->
        if not (contains ~sub:expect m) then
          Alcotest.failf "%s: error %S does not name %S" name m expect
    | exception e -> Alcotest.failf "%s: untyped exception %s" name (Printexc.to_string e));
    Alcotest.(check bool)
      (name ^ ": table not registered")
      true
      (L.Catalog.find (L.Engine.catalog eng) "bad" = None)
  in
  let bad_cell = write [ "1,1.5"; "2,2.5"; "3,oops"; "4,4.5" ] in
  let short_row = write [ "1,1.5"; ""; "7"; "2,2.5" ] in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove bad_cell;
      Sys.remove short_row)
    (fun () ->
      check "sequential bad cell" ~domains:1 bad_cell "line 3";
      check "parallel bad cell" ~domains:4 bad_cell "line 3";
      check "sequential short row" ~domains:1 short_row "line 3";
      check "parallel short row" ~domains:4 short_row "line 3")

let () =
  Alcotest.run "lh_storage"
    [
      ( "date",
        [
          Alcotest.test_case "known values" `Quick test_date_known;
          Alcotest.test_case "interval arithmetic" `Quick test_date_interval_arith;
          Alcotest.test_case "malformed" `Quick test_date_malformed;
          qcheck_date_roundtrip;
          qcheck_date_monotone;
        ] );
      ( "dict",
        [
          Alcotest.test_case "encode/decode" `Quick test_dict_encode_decode;
          qcheck_dict_roundtrip;
          Alcotest.test_case "freeze sees its prefix" `Quick test_dict_freeze_prefix;
          Alcotest.test_case "fork on first new string" `Quick test_dict_fork_on_new_string;
          Alcotest.test_case "frozen find races owner inserts" `Quick test_dict_find_races_owner;
        ]
      );
      ( "schema",
        [
          Alcotest.test_case "basics" `Quick test_schema_basics;
          Alcotest.test_case "rejects invalid" `Quick test_schema_rejects;
        ] );
      ( "table",
        [
          Alcotest.test_case "of_rows" `Quick test_table_of_rows;
          Alcotest.test_case "csv roundtrip" `Quick test_table_csv_roundtrip;
          Alcotest.test_case "csv malformed row line numbers" `Quick test_csv_malformed_line;
          Alcotest.test_case "encode_const" `Quick test_table_encode_const;
          Alcotest.test_case "validation" `Quick test_table_validation;
        ] );
      ( "trie",
        [
          qcheck_trie_vs_model;
          Alcotest.test_case "leaf aggregation" `Quick test_trie_aggregation;
          Alcotest.test_case "group codes split leaves" `Quick test_trie_group_codes;
          Alcotest.test_case "lookup" `Quick test_trie_lookup;
          Alcotest.test_case "level_max" `Quick test_trie_level_max;
          Alcotest.test_case "empty" `Quick test_trie_empty;
          Alcotest.test_case "mults override" `Quick test_trie_mults_override;
        ] );
    ]
