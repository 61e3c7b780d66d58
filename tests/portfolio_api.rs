//! Integration tests for the racing portfolio + anytime engine
//! ([`RfcSolver::solve_portfolio`]):
//!
//! * the portfolio agrees with the plain single-configuration solver on every
//!   fixture graph and fairness model, with exactly one winning member;
//! * under an exhausted budget the pooled incumbent is at least as good as the
//!   single-configuration best-so-far, and the reported optimality gap is a
//!   valid certificate (finite, `gap == 0` iff the solve completed);
//! * the first member to prove optimality cancels the rest (observed through
//!   the anytime improver, which can only ever stop by being cancelled);
//! * every clique the portfolio returns verifies against the original graph.

use rfc_core::prelude::*;
use rfc_core::verify;
use rfc_datasets::synthetic::{erdos_renyi, one_big_component, BigComponentConfig};
use rfc_graph::fixtures;

fn fixture_graphs() -> Vec<AttributedGraph> {
    vec![
        fixtures::fig1_graph(),
        fixtures::fig2_graph(),
        fixtures::balanced_clique(7),
        fixtures::two_cliques_with_bridge(8, 6),
    ]
}

fn serial(query: Query) -> Query {
    let config = query.config.clone().with_threads(ThreadCount::Serial);
    query.with_config(config)
}

/// A query whose search starts from nothing: no heuristic warm start, so a
/// zero-node budget genuinely exhausts instead of getting bound-certified.
fn cold(query: Query) -> Query {
    let config = SearchConfig {
        use_heuristic: false,
        ..query.config.clone()
    };
    serial(query.with_config(config))
}

#[test]
fn portfolio_agrees_with_the_single_config_solver_on_all_models() {
    for graph in fixture_graphs() {
        let solver = RfcSolver::new(graph);
        for model in [
            FairnessModel::Relative { k: 2, delta: 1 },
            FairnessModel::Weak { k: 2 },
            FairnessModel::Strong { k: 2 },
        ] {
            let plain = solver.solve(&serial(Query::new(model))).unwrap();
            let outcome = solver
                .solve_portfolio(&serial(Query::new(model)), &PortfolioConfig::new(4))
                .unwrap();
            let racing = &outcome.solution;
            assert_eq!(racing.termination, plain.termination, "{model}");
            assert_eq!(racing.best_size(), plain.best_size(), "{model}");
            if racing.termination == Termination::Optimal {
                assert_eq!(racing.optimality_gap(), Some(0), "{model}");
                let winners = outcome.members.iter().filter(|m| m.winner).count();
                assert_eq!(winners, 1, "exactly one member wins ({model})");
            }
            for clique in &racing.cliques {
                assert!(verify::is_fair_clique_under(
                    solver.graph(),
                    &clique.vertices,
                    model
                ));
            }
        }
    }
}

/// Thread counts to exercise, from `RFC_TEST_THREADS` (CI sweeps 1 and 4;
/// unset tests 2 and 4).
fn thread_counts() -> Vec<usize> {
    match std::env::var("RFC_TEST_THREADS") {
        Ok(v) => vec![v
            .parse()
            .expect("RFC_TEST_THREADS must be a thread count such as 1 or 4")],
        Err(_) => vec![2, 4],
    }
}

#[test]
fn portfolio_answers_are_thread_count_invariant() {
    // The base configuration's thread pool is split across members; whatever
    // the split, the racing answer must stay the serial optimum.
    let graph = erdos_renyi(150, 0.2, 0.5, 11);
    let solver = RfcSolver::new(graph);
    let model = FairnessModel::Relative { k: 2, delta: 1 };
    let expected = solver.solve(&serial(Query::new(model))).unwrap();
    for threads in thread_counts() {
        let config = SearchConfig::default().with_threads(ThreadCount::Fixed(threads));
        let outcome = solver
            .solve_portfolio(
                &Query::new(model).with_config(config),
                &PortfolioConfig::new(3).with_anytime(true),
            )
            .unwrap();
        assert_eq!(outcome.solution.termination, Termination::Optimal);
        assert_eq!(
            outcome.solution.best_size(),
            expected.best_size(),
            "{threads} threads"
        );
        for clique in &outcome.solution.cliques {
            assert!(verify::is_fair_clique_under(
                solver.graph(),
                &clique.vertices,
                model
            ));
        }
    }
}

#[test]
fn budget_bound_portfolio_is_at_least_as_good_as_the_single_config() {
    // One big-ish ER component: hard enough that 200 nodes do not finish it.
    let er = erdos_renyi(300, 0.12, 0.5, 21);
    // One 800-vertex component hiding a planted 36-clique in a dense community:
    // under 2,000 nodes the single configuration stops far below the optimum.
    let (big, _) = one_big_component(
        &BigComponentConfig {
            n: 800,
            edge_prob: 16.0 / 800.0,
            community: 240,
            community_prob: 0.55,
            planted_half: 18,
            prob_a: 0.5,
        },
        17,
    );
    for (graph, model, nodes) in [
        (er, FairnessModel::Relative { k: 2, delta: 1 }, 200),
        (big, FairnessModel::Relative { k: 3, delta: 1 }, 2_000),
    ] {
        let solver = RfcSolver::new(graph);
        let budget = Budget::unlimited().with_node_limit(nodes);

        let single = solver
            .solve(&cold(Query::new(model).with_budget(budget)))
            .unwrap();
        let outcome = solver
            .solve_portfolio(
                &cold(Query::new(model).with_budget(budget)),
                &PortfolioConfig::new(4).with_anytime(true),
            )
            .unwrap();
        let pooled = &outcome.solution;

        // Member 0 runs the caller's configuration verbatim on the shared pool,
        // so the pooled best can only match or beat the single-configuration run.
        assert!(
            pooled.best_size() >= single.best_size(),
            "portfolio {:?} < single {:?} at {nodes} nodes",
            pooled.best_size(),
            single.best_size()
        );
        if pooled.termination == Termination::BudgetExhausted {
            // A certified, finite gap: upper bound present and no smaller than
            // the incumbent.
            let ub = pooled
                .upper_bound
                .expect("budget-bound solves carry a bound");
            let gap = pooled.optimality_gap().expect("gap derives from the bound");
            assert_eq!(gap, ub - pooled.best_size());
            assert!(outcome.members.iter().all(|m| !m.winner));
        }
        for clique in &pooled.cliques {
            assert!(verify::is_fair_clique_under(
                solver.graph(),
                &clique.vertices,
                model
            ));
        }
    }
}

#[test]
fn optimality_gap_is_zero_iff_the_solve_completed() {
    let solver = RfcSolver::new(fixtures::fig1_graph());
    let model = FairnessModel::Relative { k: 3, delta: 1 };

    // Complete run: gap 0.
    let done = solver
        .solve_portfolio(&serial(Query::new(model)), &PortfolioConfig::new(3))
        .unwrap()
        .solution;
    assert_eq!(done.termination, Termination::Optimal);
    assert_eq!(done.optimality_gap(), Some(0));

    // Starved run: either it gets bound-certified (gap 0 and Optimal) or it
    // exhausts with a strictly positive gap — never a zero gap on an
    // incomplete answer.
    let starved = solver
        .solve_portfolio(
            &cold(Query::new(model).with_budget(Budget::unlimited().with_node_limit(0))),
            &PortfolioConfig::new(3),
        )
        .unwrap()
        .solution;
    match starved.termination {
        Termination::Optimal | Termination::Infeasible => {
            assert_eq!(starved.optimality_gap(), Some(0))
        }
        Termination::BudgetExhausted | Termination::Cancelled => {
            assert!(starved.optimality_gap().is_none_or(|gap| gap > 0))
        }
    }
}

#[test]
fn first_optimal_finish_cancels_the_other_members() {
    // The anytime improver never halts on its own under an unlimited budget —
    // the only way its thread exits is a sibling's victory cancelling it. A
    // `Cancelled` anytime report is therefore direct evidence the winner's
    // cancellation fan-out fired.
    let solver = RfcSolver::new(fixtures::fig1_graph());
    let outcome = solver
        .solve_portfolio(
            &serial(Query::new(FairnessModel::Relative { k: 3, delta: 1 })),
            &PortfolioConfig::new(2).with_anytime(true),
        )
        .unwrap();
    assert_eq!(outcome.solution.termination, Termination::Optimal);
    assert_eq!(outcome.solution.best_size(), 7);
    assert_eq!(outcome.members.iter().filter(|m| m.winner).count(), 1);
    let anytime = outcome
        .members
        .iter()
        .find(|m| m.label == "anytime")
        .expect("anytime member is reported");
    assert!(!anytime.winner);
    assert_eq!(anytime.termination, Termination::Cancelled);
    // Non-winning exact members either finished on their own or were cancelled.
    for member in &outcome.members {
        if !member.winner && member.label != "anytime" {
            assert!(matches!(
                member.termination,
                Termination::Optimal | Termination::Infeasible | Termination::Cancelled
            ));
        }
    }
}

#[test]
fn anytime_reports_ride_along_and_cliques_always_verify() {
    // Starved exact members + anytime improver: whatever comes back must be a
    // genuine fair clique of the original graph, and the improver must appear
    // in the member reports exactly once.
    let graph = erdos_renyi(200, 0.15, 0.5, 5);
    let solver = RfcSolver::new(graph);
    let model = FairnessModel::Relative { k: 2, delta: 1 };
    let outcome = solver
        .solve_portfolio(
            &cold(Query::new(model).with_budget(Budget::unlimited().with_node_limit(50))),
            &PortfolioConfig::new(3).with_anytime(true).with_seed(7),
        )
        .unwrap();
    assert_eq!(
        outcome
            .members
            .iter()
            .filter(|m| m.label == "anytime")
            .count(),
        1
    );
    assert_eq!(outcome.members.len(), 4);
    for clique in &outcome.solution.cliques {
        assert!(verify::is_fair_clique_under(
            solver.graph(),
            &clique.vertices,
            model
        ));
    }
    if let Some(ub) = outcome.solution.upper_bound {
        assert!(ub >= outcome.solution.best_size());
    }
}
