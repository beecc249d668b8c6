n = 300;
rand('seed', 5);
A = rand(n, n);
A = (A + A') / 2 + n * eye(n);
[lam, v] = powmeth(A, 40);
resid = norm(A * v - lam * v);
rm = rowmean(A);
fprintf('dominant eigenvalue %.6f (residual %.2e)\n', lam, resid);
fprintf('mean row-mean %.6f\n', mean(rm));
