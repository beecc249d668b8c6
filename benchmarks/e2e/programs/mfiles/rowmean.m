function m = rowmean(A)
m = (A * ones(size(A, 2), 1)) / size(A, 2);
