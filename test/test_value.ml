(* Unit tests for Cal.Value: equality, ordering, hashing, projections and
   the subvalue universe. *)

open Cal
open Test_support

let t name f = Alcotest.test_case name `Quick f

let test_equal_basic () =
  check_bool "unit = unit" true (Value.equal Value.unit Value.unit);
  check_bool "int eq" true (Value.equal (vi 3) (vi 3));
  check_bool "int neq" false (Value.equal (vi 3) (vi 4));
  check_bool "bool vs int" false (Value.equal (Value.bool true) (vi 1));
  check_bool "str eq" true (Value.equal (Value.str "a") (Value.str "a"))

let test_equal_structural () =
  check_bool "pair eq" true (Value.equal (Value.pair (vi 1) (vi 2)) (Value.pair (vi 1) (vi 2)));
  check_bool "pair neq" false (Value.equal (Value.pair (vi 1) (vi 2)) (Value.pair (vi 2) (vi 1)));
  check_bool "list eq" true
    (Value.equal (Value.list [ vi 1; vi 2 ]) (Value.list [ vi 1; vi 2 ]));
  check_bool "list length" false (Value.equal (Value.list [ vi 1 ]) (Value.list []))

let test_compare_total_order () =
  let vs =
    [
      Value.unit; Value.bool false; Value.bool true; vi (-1); vi 0; vi 5;
      Value.str "a"; Value.str "b"; Value.pair (vi 1) (vi 2);
      Value.list [ vi 1 ]; Value.list [];
    ]
  in
  (* antisymmetry and reflexivity *)
  List.iter
    (fun a ->
      Alcotest.(check int) "refl" 0 (Value.compare a a);
      List.iter
        (fun b ->
          let ab = Value.compare a b and ba = Value.compare b a in
          check_bool "antisym" true (compare ab 0 = compare 0 ba))
        vs)
    vs;
  (* transitivity on the sorted list *)
  let sorted = List.sort Value.compare vs in
  let rec chain = function
    | a :: (b :: _ as rest) ->
        check_bool "sorted" true (Value.compare a b <= 0);
        chain rest
    | _ -> ()
  in
  chain sorted

let test_ok_fail_shapes () =
  Alcotest.check value "ok" (Value.pair (Value.bool true) (vi 7)) (ok_int 7);
  Alcotest.check value "fail" (Value.pair (Value.bool false) (vi 7)) (fail_int 7)

let test_projections () =
  Alcotest.(check bool) "to_bool" true (Value.to_bool (Value.bool true));
  Alcotest.(check int) "to_int" 42 (Value.to_int (vi 42));
  let a, b = Value.to_pair (Value.pair (vi 1) (vi 2)) in
  Alcotest.check value "fst" (vi 1) a;
  Alcotest.check value "snd" (vi 2) b;
  Alcotest.check_raises "to_bool of int" (Invalid_argument "Value.to_bool: 3")
    (fun () -> ignore (Value.to_bool (vi 3)))

let test_hash_consistent_with_equal () =
  let vs = [ vi 0; vi 1; Value.pair (vi 1) (vi 2); Value.list [ vi 1; vi 2 ] ] in
  List.iter
    (fun v -> Alcotest.(check int) "hash stable" (Value.hash v) (Value.hash v))
    vs;
  check_bool "hash of equal values" true
    (Value.hash (Value.pair (vi 1) (vi 2)) = Value.hash (Value.pair (vi 1) (vi 2)))

let test_subvalues () =
  let v = Value.pair (vi 1) (Value.list [ vi 2; Value.pair (vi 3) (vi 4) ]) in
  let subs = Value.subvalues v in
  check_bool "contains self" true (List.exists (Value.equal v) subs);
  List.iter
    (fun n -> check_bool (Fmt.str "contains %d" n) true (List.exists (Value.equal (vi n)) subs))
    [ 1; 2; 3; 4 ];
  Alcotest.(check int) "flat int" 1 (List.length (Value.subvalues (vi 9)))

let test_show () =
  Alcotest.(check string) "pair" "(true, 3)" (Value.show (ok_int 3));
  Alcotest.(check string) "unit" "()" (Value.show Value.unit);
  Alcotest.(check string) "list" "[1; 2]" (Value.show (Value.list [ vi 1; vi 2 ]))

let value_gen =
  let open QCheck.Gen in
  let rec gen depth =
    if depth = 0 then
      oneof [ map Value.int small_int; map Value.bool bool; return Value.unit ]
    else
      frequency
        [
          (3, map Value.int small_int);
          (1, map2 Value.pair (gen (depth - 1)) (gen (depth - 1)));
          (1, map Value.list (list_size (int_bound 3) (gen (depth - 1))));
        ]
  in
  gen 3

let arb_value = QCheck.make ~print:Value.show value_gen

(* Specification keys are [show]s and daemon snapshots store them, so
   [show] (and [pp], which writes it) must keep printing the bytes of the
   Format printer the keys were first written with, [format_pp] below.
   This generator reaches what
   [value_gen] does not: strings of arbitrary bytes (quotes, backslashes,
   control and non-ASCII characters need escaping), negative and extreme
   ints, deeper nesting and empty lists. *)
let printable_gen =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map Value.int (oneof [ int; int_range (-50) 50; oneofl [ min_int; max_int; 0 ] ]);
        map Value.str (string_size ~gen:char (int_bound 6));
        map Value.str
          (string_size ~gen:(oneofl [ '"'; '\\'; '\n'; '\t'; 'a'; '\255' ]) (int_bound 4));
        map Value.bool bool;
        return Value.unit;
        return (Value.list []);
      ]
  in
  let rec gen depth =
    if depth = 0 then leaf
    else
      frequency
        [
          (2, leaf);
          (1, map2 Value.pair (gen (depth - 1)) (gen (depth - 1)));
          (1, map Value.list (list_size (int_bound 4) (gen (depth - 1))));
        ]
  in
  int_bound 4 >>= gen

let rec format_pp ppf = function
  | Value.Unit -> Fmt.string ppf "()"
  | Bool b -> Fmt.bool ppf b
  | Int n -> Fmt.int ppf n
  | Str s -> Fmt.pf ppf "%S" s
  | Pair (a, b) -> Fmt.pf ppf "(%a, %a)" format_pp a format_pp b
  | List vs -> Fmt.pf ppf "[%a]" (Fmt.list ~sep:(Fmt.any "; ") format_pp) vs

let pp_string v = Fmt.str "%a" Value.pp v
let format_string v = Fmt.str "%a" format_pp v
let arb_printable = QCheck.make ~print:format_string printable_gen

let test_show_is_pp () =
  List.iter
    (fun v ->
      let expected = format_string v in
      Alcotest.(check string) ("show " ^ expected) expected (Value.show v);
      Alcotest.(check string) ("pp " ^ expected) expected (pp_string v))
    [
      Value.list [];
      Value.list [ Value.list [] ];
      vi (-7);
      vi min_int;
      Value.str "";
      Value.str "q\"uo\\te\n\t\r\001\255é";
      Value.pair
        (Value.pair (vi (-1)) (Value.str "a b"))
        (Value.list [ Value.unit; Value.bool false ]);
      Value.timeout (Value.list [ vi 1; Value.pair (vi 2) (vi (-3)) ]);
    ]

let () =
  Alcotest.run "value"
    [
      ( "unit",
        [
          t "equal basic" test_equal_basic;
          t "equal structural" test_equal_structural;
          t "compare total order" test_compare_total_order;
          t "ok/fail shapes" test_ok_fail_shapes;
          t "projections" test_projections;
          t "hash consistency" test_hash_consistent_with_equal;
          t "subvalues" test_subvalues;
          t "show" test_show;
          t "show is pp" test_show_is_pp;
        ] );
      ( "properties",
        [
          qtest ~count:300 "equal is reflexive" arb_value (fun v -> Value.equal v v);
          qtest ~count:300 "compare 0 iff equal" (QCheck.pair arb_value arb_value)
            (fun (a, b) -> Value.compare a b = 0 = Value.equal a b);
          qtest ~count:300 "hash respects equal" (QCheck.pair arb_value arb_value)
            (fun (a, b) -> (not (Value.equal a b)) || Value.hash a = Value.hash b);
          qtest ~count:300 "subvalues closed"
            arb_value
            (fun v ->
              let subs = Value.subvalues v in
              List.for_all
                (fun s ->
                  List.for_all
                    (fun ss -> List.exists (Value.equal ss) subs)
                    (Value.subvalues s))
                subs);
          qtest ~count:1000 "show prints the bytes of pp" arb_printable (fun v ->
              let expected = format_string v in
              String.equal (Value.show v) expected && String.equal (pp_string v) expected);
        ] );
    ]
