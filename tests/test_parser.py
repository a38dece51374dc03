"""Unit tests for the SPARQL parser (happy paths)."""


from repro.rdf import IRI, BlankNode, Literal, Variable
from repro.sparql import ast, parse_query

RDF_TYPE = IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")


class TestQueryForms:
    def test_select(self):
        q = parse_query("SELECT ?x WHERE { ?x <urn:p> ?y }")
        assert q.query_type is ast.QueryType.SELECT
        assert q.projection.variables() == (Variable("x"),)

    def test_select_star(self):
        q = parse_query("SELECT * WHERE { ?x <urn:p> ?y }")
        assert q.projection.select_all

    def test_select_distinct(self):
        q = parse_query("SELECT DISTINCT ?x WHERE { ?x <urn:p> ?y }")
        assert q.projection.distinct

    def test_select_reduced(self):
        q = parse_query("SELECT REDUCED ?x WHERE { ?x <urn:p> ?y }")
        assert q.projection.reduced

    def test_select_expression(self):
        q = parse_query("SELECT (STRLEN(?n) AS ?len) WHERE { ?x <urn:n> ?n }")
        item = q.projection.items[0]
        assert isinstance(item, ast.ProjectionExpression)
        assert item.variable == Variable("len")

    def test_ask(self):
        q = parse_query("ASK { <urn:s> <urn:p> <urn:o> }")
        assert q.query_type is ast.QueryType.ASK

    def test_ask_with_where_keyword(self):
        q = parse_query("ASK WHERE { ?s ?p ?o }")
        assert q.query_type is ast.QueryType.ASK

    def test_construct(self):
        q = parse_query(
            "CONSTRUCT { ?s <urn:new> ?o } WHERE { ?s <urn:old> ?o }"
        )
        assert q.query_type is ast.QueryType.CONSTRUCT
        assert len(q.template) == 1

    def test_construct_where_short_form(self):
        q = parse_query("CONSTRUCT WHERE { ?s <urn:p> ?o }")
        assert len(q.template) == 1
        assert q.pattern is not None

    def test_describe_iri(self):
        q = parse_query("DESCRIBE <urn:thing>")
        assert q.query_type is ast.QueryType.DESCRIBE
        assert q.describe_targets == (IRI("urn:thing"),)
        assert not q.has_body()

    def test_describe_star_with_body(self):
        q = parse_query("DESCRIBE * WHERE { ?x <urn:p> ?y }")
        assert q.describe_all
        assert q.has_body()

    def test_describe_variable(self):
        q = parse_query("DESCRIBE ?x WHERE { ?x <urn:p> 1 }")
        assert q.describe_targets == (Variable("x"),)


class TestPrologue:
    def test_prefix_expansion(self):
        q = parse_query("PREFIX ex: <urn:x:> SELECT * WHERE { ?s ex:p ?o }")
        triple = q.pattern.elements[0]
        assert triple.predicate == IRI("urn:x:p")

    def test_empty_prefix(self):
        q = parse_query("PREFIX : <urn:d:> ASK { ?s :p :o }")
        triple = q.pattern.elements[0]
        assert triple.object == IRI("urn:d:o")

    def test_prologue_recorded(self):
        q = parse_query("PREFIX a: <urn:a:> PREFIX b: <urn:b:> ASK { ?s a:p ?o }")
        assert q.prologue.prefixes == (("a", "urn:a:"), ("b", "urn:b:"))

    def test_base_resolution_relative(self):
        q = parse_query("BASE <http://ex.org/data/> ASK { ?s <p> ?o }")
        triple = q.pattern.elements[0]
        assert triple.predicate == IRI("http://ex.org/data/p")

    def test_base_absolute_untouched(self):
        q = parse_query("BASE <http://ex.org/> ASK { ?s <urn:p> ?o }")
        assert q.pattern.elements[0].predicate == IRI("urn:p")

    def test_extra_prefixes_parameter(self):
        q = parse_query(
            "SELECT * WHERE { ?s dbo:birthPlace ?o }",
            extra_prefixes={"dbo": "http://dbpedia.org/ontology/"},
        )
        triple = q.pattern.elements[0]
        assert triple.predicate == IRI("http://dbpedia.org/ontology/birthPlace")

    def test_prefix_redeclaration_replaces_binding(self):
        # A later PREFIX wins over an earlier one and over a
        # pre-declared prefix, and the caller's mapping is not touched.
        extra = {"ex": "urn:extra:"}
        q = parse_query(
            "PREFIX ex: <urn:a:> PREFIX ex: <urn:b:> ASK { ?s ex:p ?o }",
            extra_prefixes=extra,
        )
        assert q.pattern.elements[0].predicate == IRI("urn:b:p")
        assert extra == {"ex": "urn:extra:"}

    def test_a_keyword_is_rdf_type(self):
        q = parse_query("ASK { ?s a <urn:Class> }")
        assert q.pattern.elements[0].predicate == RDF_TYPE


class TestTriplesBlocks:
    def test_semicolon_shares_subject(self):
        q = parse_query("ASK { ?s <urn:p> ?a ; <urn:q> ?b }")
        triples = q.pattern.elements
        assert len(triples) == 2
        assert triples[0].subject == triples[1].subject

    def test_comma_shares_predicate(self):
        q = parse_query("ASK { ?s <urn:p> ?a , ?b }")
        triples = q.pattern.elements
        assert len(triples) == 2
        assert triples[0].predicate == triples[1].predicate

    def test_trailing_semicolon_tolerated(self):
        q = parse_query("ASK { ?s <urn:p> ?a ; }")
        assert len(q.pattern.elements) == 1

    def test_blank_node_property_list(self):
        q = parse_query("ASK { ?x <urn:p> [ <urn:q> 5 ] }")
        triples = q.pattern.elements
        assert len(triples) == 2
        outer = next(t for t in triples if t.predicate == IRI("urn:p"))
        inner = next(t for t in triples if t.predicate == IRI("urn:q"))
        assert isinstance(outer.object, BlankNode)
        assert inner.subject == outer.object

    def test_blank_node_as_statement(self):
        q = parse_query("ASK { [ <urn:p> 1 ; <urn:q> 2 ] }")
        assert len(q.pattern.elements) == 2

    def test_anon_blank(self):
        q = parse_query("ASK { ?x <urn:p> [] }")
        assert isinstance(q.pattern.elements[0].object, BlankNode)

    def test_collection(self):
        q = parse_query("ASK { ?x <urn:p> (1 2) }")
        # 1 main triple + 2 first + 2 rest
        assert len(q.pattern.elements) == 5

    def test_empty_collection_is_nil(self):
        q = parse_query("ASK { ?x <urn:p> () }")
        triple = q.pattern.elements[0]
        assert triple.object == IRI(
            "http://www.w3.org/1999/02/22-rdf-syntax-ns#nil"
        )

    def test_numeric_literals(self):
        q = parse_query("ASK { ?x <urn:p> 5 . ?x <urn:q> 2.5 . ?x <urn:r> 1e3 }")
        objects = [t.object for t in q.pattern.elements]
        assert objects[0].datatype.endswith("integer")
        assert objects[1].datatype.endswith("decimal")
        assert objects[2].datatype.endswith("double")

    def test_negative_number(self):
        q = parse_query("ASK { ?x <urn:p> -5 }")
        assert q.pattern.elements[0].object == Literal(
            "-5", datatype="http://www.w3.org/2001/XMLSchema#integer"
        )

    def test_boolean_literals(self):
        q = parse_query("ASK { ?x <urn:p> true . ?x <urn:q> false }")
        assert q.pattern.elements[0].object.lexical == "true"

    def test_typed_literal(self):
        q = parse_query('ASK { ?x <urn:p> "5"^^<urn:mytype> }')
        assert q.pattern.elements[0].object.datatype == "urn:mytype"


class TestGraphPatternOperators:
    def test_optional(self):
        q = parse_query("SELECT * WHERE { ?s <urn:p> ?o OPTIONAL { ?o <urn:q> ?z } }")
        assert isinstance(q.pattern.elements[1], ast.OptionalPattern)

    def test_union(self):
        q = parse_query("SELECT * WHERE { { ?s <urn:a> ?o } UNION { ?s <urn:b> ?o } }")
        assert isinstance(q.pattern.elements[0], ast.UnionPattern)

    def test_nested_union(self):
        q = parse_query(
            "SELECT * WHERE { { ?s <urn:a> ?o } UNION { ?s <urn:b> ?o } "
            "UNION { ?s <urn:c> ?o } }"
        )
        union = q.pattern.elements[0]
        assert isinstance(union.left, ast.UnionPattern)

    def test_minus(self):
        q = parse_query("SELECT * WHERE { ?s <urn:p> ?o MINUS { ?s <urn:q> ?o } }")
        assert isinstance(q.pattern.elements[1], ast.MinusPattern)

    def test_graph_iri(self):
        q = parse_query("SELECT * WHERE { GRAPH <urn:g> { ?s ?p ?o } }")
        graph_pattern = q.pattern.elements[0]
        assert isinstance(graph_pattern, ast.GraphGraphPattern)
        assert graph_pattern.graph == IRI("urn:g")

    def test_graph_variable(self):
        q = parse_query("SELECT * WHERE { GRAPH ?g { ?s ?p ?o } }")
        assert q.pattern.elements[0].graph == Variable("g")

    def test_service_silent(self):
        q = parse_query(
            "SELECT * WHERE { SERVICE SILENT <urn:endpoint> { ?s ?p ?o } }"
        )
        service = q.pattern.elements[0]
        assert isinstance(service, ast.ServicePattern)
        assert service.silent

    def test_bind(self):
        q = parse_query("SELECT * WHERE { ?s <urn:p> ?o BIND(?o AS ?copy) }")
        bind = q.pattern.elements[1]
        assert isinstance(bind, ast.BindPattern)
        assert bind.variable == Variable("copy")

    def test_filter(self):
        q = parse_query("SELECT * WHERE { ?s <urn:p> ?o FILTER(?o > 5) }")
        filter_pattern = q.pattern.elements[1]
        assert isinstance(filter_pattern, ast.FilterPattern)
        assert isinstance(filter_pattern.expression, ast.Comparison)

    def test_values_inline(self):
        q = parse_query(
            "SELECT * WHERE { ?s <urn:p> ?o VALUES (?s) { (<urn:a>) (UNDEF) } }"
        )
        values = q.pattern.elements[1]
        assert isinstance(values, ast.ValuesPattern)
        assert values.rows == ((IRI("urn:a"),), (None,))

    def test_values_single_variable_form(self):
        q = parse_query("SELECT * WHERE { VALUES ?x { 1 2 3 } }")
        values = q.pattern.elements[0]
        assert len(values.rows) == 3

    def test_trailing_values_clause(self):
        q = parse_query("SELECT * WHERE { ?s ?p ?o } VALUES ?s { <urn:a> }")
        assert q.values is not None

    def test_subselect(self):
        q = parse_query(
            "SELECT ?avg WHERE { { SELECT (AVG(?v) AS ?avg) WHERE { ?s <urn:v> ?v } } }"
        )
        sub = q.pattern.elements[0]
        assert isinstance(sub, ast.SubSelectPattern)
        assert sub.query.query_type is ast.QueryType.SELECT

    def test_nested_group(self):
        q = parse_query("SELECT * WHERE { { ?s <urn:p> ?o } }")
        assert isinstance(q.pattern.elements[0], ast.GroupPattern)


class TestPropertyPaths:
    def test_sequence(self):
        q = parse_query("ASK { ?s <urn:a>/<urn:b> ?o }")
        path = q.pattern.elements[0].path
        assert isinstance(path, ast.PathSequence)
        assert len(path.steps) == 2

    def test_alternative(self):
        q = parse_query("ASK { ?s <urn:a>|<urn:b> ?o }")
        assert isinstance(q.pattern.elements[0].path, ast.PathAlternative)

    def test_star(self):
        q = parse_query("ASK { ?s <urn:a>* ?o }")
        path = q.pattern.elements[0].path
        assert isinstance(path, ast.PathMod) and path.modifier == "*"

    def test_plus_and_question(self):
        q = parse_query("ASK { ?s <urn:a>+ ?o . ?s <urn:b>? ?z }")
        assert q.pattern.elements[0].path.modifier == "+"
        assert q.pattern.elements[1].path.modifier == "?"

    def test_inverse(self):
        q = parse_query("ASK { ?s ^<urn:a> ?o }")
        assert isinstance(q.pattern.elements[0].path, ast.PathInverse)

    def test_negated_single(self):
        q = parse_query("ASK { ?s !<urn:a> ?o }")
        path = q.pattern.elements[0].path
        assert isinstance(path, ast.PathNegated)
        assert path.forward == (IRI("urn:a"),)

    def test_negated_set_with_inverse(self):
        q = parse_query("ASK { ?s !(<urn:a>|^<urn:b>) ?o }")
        path = q.pattern.elements[0].path
        assert path.forward == (IRI("urn:a"),)
        assert path.inverse == (IRI("urn:b"),)

    def test_parenthesized_sequence_star(self):
        q = parse_query("ASK { ?s (<urn:a>/<urn:b>)* ?o }")
        path = q.pattern.elements[0].path
        assert isinstance(path, ast.PathMod)
        assert isinstance(path.path, ast.PathSequence)

    def test_plain_iri_verb_is_triple_not_path(self):
        q = parse_query("ASK { ?s <urn:a> ?o }")
        assert isinstance(q.pattern.elements[0], ast.TriplePattern)

    def test_a_star_path(self):
        q = parse_query("ASK { ?s a* ?o }")
        path = q.pattern.elements[0].path
        assert isinstance(path.path, ast.PathIRI)
        assert path.path.iri == RDF_TYPE


class TestExpressions:
    def test_precedence_or_and(self):
        q = parse_query("ASK { ?s ?p ?o FILTER(?a || ?b && ?c) }")
        expression = q.pattern.elements[1].expression
        assert isinstance(expression, ast.OrExpression)
        assert isinstance(expression.operands[1], ast.AndExpression)

    def test_arithmetic_precedence(self):
        q = parse_query("ASK { ?s ?p ?o FILTER(?a + ?b * ?c = 7) }")
        comparison = q.pattern.elements[1].expression
        assert isinstance(comparison.left, ast.Arithmetic)
        assert comparison.left.op == "+"
        assert comparison.left.right.op == "*"

    def test_unary_not(self):
        q = parse_query("ASK { ?s ?p ?o FILTER(!BOUND(?x)) }")
        assert isinstance(q.pattern.elements[1].expression, ast.NotExpression)

    def test_in_expression(self):
        q = parse_query("ASK { ?s ?p ?o FILTER(?o IN (1, 2, 3)) }")
        expression = q.pattern.elements[1].expression
        assert isinstance(expression, ast.InExpression)
        assert len(expression.choices) == 3

    def test_not_in(self):
        q = parse_query("ASK { ?s ?p ?o FILTER(?o NOT IN (1)) }")
        assert q.pattern.elements[1].expression.negated

    def test_empty_in_list_may_hold_a_comment(self):
        """``( #c\\n )`` lexes as two tokens, not NIL; the list is still
        empty, like a call's argument list."""
        for keyword in ("IN", "NOT IN"):
            commented = parse_query(f"ASK {{ FILTER(?a {keyword} ( #c\n )) }}")
            assert commented == parse_query(f"ASK {{ FILTER(?a {keyword} ()) }}")
            assert commented.pattern.elements[0].expression.choices == ()

    def test_builtin_no_parens_filter(self):
        q = parse_query('ASK { ?s ?p ?o FILTER regex(?o, "x") }')
        expression = q.pattern.elements[1].expression
        assert isinstance(expression, ast.BuiltinCall)
        assert expression.name == "REGEX"

    def test_exists(self):
        q = parse_query("ASK { ?s ?p ?o FILTER EXISTS { ?s <urn:q> ?z } }")
        expression = q.pattern.elements[1].expression
        assert isinstance(expression, ast.ExistsExpression)
        assert not expression.negated

    def test_not_exists(self):
        q = parse_query("ASK { ?s ?p ?o FILTER NOT EXISTS { ?s <urn:q> ?z } }")
        assert q.pattern.elements[1].expression.negated

    def test_function_call_cast(self):
        q = parse_query(
            "PREFIX xsd: <http://www.w3.org/2001/XMLSchema#> "
            "ASK { ?s ?p ?o FILTER(xsd:integer(?o) > 3) }"
        )
        comparison = q.pattern.elements[1].expression
        assert isinstance(comparison.left, ast.FunctionCall)


class TestSolutionModifiers:
    def test_limit_offset(self):
        q = parse_query("SELECT * WHERE { ?s ?p ?o } LIMIT 10 OFFSET 20")
        assert q.modifier.limit == 10
        assert q.modifier.offset == 20

    def test_offset_before_limit(self):
        q = parse_query("SELECT * WHERE { ?s ?p ?o } OFFSET 5 LIMIT 2")
        assert (q.modifier.limit, q.modifier.offset) == (2, 5)

    def test_order_by_variants(self):
        q = parse_query(
            "SELECT * WHERE { ?s ?p ?o } ORDER BY ?s DESC(?p) ASC(?o)"
        )
        conditions = q.modifier.order_by
        assert len(conditions) == 3
        assert not conditions[0].descending
        assert conditions[1].descending
        assert not conditions[2].descending

    def test_group_by_having(self):
        q = parse_query(
            "SELECT ?s (COUNT(?o) AS ?n) WHERE { ?s ?p ?o } "
            "GROUP BY ?s HAVING (COUNT(?o) > 2)"
        )
        assert len(q.modifier.group_by) == 1
        assert len(q.modifier.having) == 1

    def test_group_by_expression_alias(self):
        q = parse_query(
            "SELECT ?l WHERE { ?s ?p ?o } GROUP BY (STRLEN(?s) AS ?l)"
        )
        condition = q.modifier.group_by[0]
        assert isinstance(condition, ast.ProjectionExpression)

    def test_aggregates(self):
        q = parse_query(
            "SELECT (COUNT(DISTINCT ?x) AS ?c) (SUM(?v) AS ?s) "
            "(GROUP_CONCAT(?n; SEPARATOR=\",\") AS ?g) WHERE { ?x <urn:v> ?v }"
        )
        count = q.projection.items[0].expression
        assert count.name == "COUNT" and count.distinct
        concat = q.projection.items[2].expression
        assert concat.separator == ","

    def test_count_star(self):
        q = parse_query("SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }")
        aggregate = q.projection.items[0].expression
        assert aggregate.expression is None

    def test_dataset_clauses(self):
        q = parse_query(
            "SELECT * FROM <urn:g1> FROM NAMED <urn:g2> WHERE { ?s ?p ?o }"
        )
        assert q.datasets == ((IRI("urn:g1"), False), (IRI("urn:g2"), True))


class TestRealWorldQueries:
    def test_wikidata_archaeological_sites(self):
        q = parse_query(
            """
            PREFIX wdt: <http://www.wikidata.org/prop/direct/>
            PREFIX wd: <http://www.wikidata.org/entity/>
            PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
            SELECT ?label ?coord ?subj
            WHERE
            { ?subj wdt:P31/wdt:P279* wd:Q839954 .
              ?subj wdt:P625 ?coord .
              ?subj rdfs:label ?label filter(lang(?label)="en")
            }
            """
        )
        assert q.query_type is ast.QueryType.SELECT
        assert len(q.pattern.elements) == 4  # path + 2 triples + filter

    def test_dbpedia_style_query(self):
        q = parse_query(
            """
            PREFIX dbo: <http://dbpedia.org/ontology/>
            PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
            SELECT DISTINCT ?city ?name WHERE {
              ?city a dbo:City ;
                    rdfs:label ?name ;
                    dbo:country <http://dbpedia.org/resource/France> .
              FILTER (lang(?name) = "fr")
            } ORDER BY ?name LIMIT 100
            """
        )
        assert q.projection.distinct
        assert q.modifier.limit == 100
        assert len(q.pattern.elements) == 4

    def test_keyword_case_insensitivity(self):
        q = parse_query("select ?x where { ?x <urn:p> ?y } limit 5")
        assert q.query_type is ast.QueryType.SELECT
        assert q.modifier.limit == 5
